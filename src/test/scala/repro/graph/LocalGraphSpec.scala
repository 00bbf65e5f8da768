package repro.graph

import repro.SparkSpec
import repro.testutil.TestGraphs

class LocalGraphSpec extends SparkSpec {

  test("empty graph") {
    val g = LocalGraph.fromPairs(Array.empty)
    assert(g.n == 0 && g.m == 0)
  }

  test("single edge") {
    val g = LocalGraph.fromPairs(Array((0, 1)))
    assert(g.n == 2 && g.m == 1 && g.degree(0) == 1 && g.degree(1) == 1)
    assert(g.edgeId(0, 1) == 0 && g.edgeId(1, 0) == 0)
  }

  test("fromEdges fails loudly on ids past the Int range") {
    import spark.implicits._
    // Narrowing would read (1, 2^32 + 2) as the edge (1, 2).
    intercept[ArithmeticException] { LocalGraph.fromEdges(Seq((1L, (1L << 32) + 2)).toDF("u", "v")) }
    assert(LocalGraph.fromEdges(Seq((1L, 2L)).toDF("u", "v")).edgeId(1, 2) == 0)
  }

  test("rejects non-canonical edges") {
    intercept[IllegalArgumentException] { LocalGraph.fromPairs(Array((1, 0))) }
  }

  test("degrees match brute force on random graphs") {
    for (seed <- 1 to 5) {
      val pairs = TestGraphs.randomGraph(20, 0.3, seed)
      val g = LocalGraph.fromPairs(pairs)
      for (v <- 0 until g.n) {
        val expected = pairs.count(e => e._1 == v || e._2 == v)
        assert(g.degree(v) == expected, s"vertex $v seed=$seed")
      }
    }
  }

  test("foreachNeighbor enumerates exactly the adjacency") {
    for (seed <- Seq(3, 9)) {
      val pairs = TestGraphs.randomGraph(15, 0.4, seed)
      val g = LocalGraph.fromPairs(pairs)
      for (v <- 0 until g.n) {
        val got = (g.adjOff(v) until g.adjOff(v + 1)).map(g.adjVtx)
        val expected = pairs.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }.sorted.toSeq
        assert(got == expected, s"seed=$seed vertex $v: neighbours, ascending")
      }
    }
  }

  test("edge ids are consistent between edges array and adjacency") {
    for (seed <- Seq(3, 9)) {
      val pairs = TestGraphs.randomGraph(15, 0.4, seed)
      val g = LocalGraph.fromPairs(pairs)
      for (v <- 0 until g.n; i <- g.adjOff(v) until g.adjOff(v + 1)) {
        val (w, e) = (g.adjVtx(i), g.adjEid(i))
        val (a, b) = g.edges(e)
        assert(Set(a, b) == Set(v, w), s"slot ($v,$w) claims edge $e=($a,$b)")
      }
    }
  }

  test("edgeId finds every edge and rejects non-edges") {
    val pairs = TestGraphs.randomGraph(12, 0.5, 4)
    val g = LocalGraph.fromPairs(pairs)
    val present = pairs.toSet
    for (u <- 0 until g.n; v <- u + 1 until g.n) {
      if (present((u, v))) assert(g.edges(g.edgeId(u, v)) == (u, v))
      else assert(g.edgeId(u, v) == -1)
    }
  }

  test("LongIndex maps every stored key, misses others, and rejects keys beyond its size") {
    val rnd = new scala.util.Random(1)
    val keys = Array.fill(5000)(rnd.nextLong() & Long.MaxValue).distinct
    val ix = new LongIndex(keys.length)
    keys.indices.foreach(i => ix(keys(i)) = i)
    assert(keys.indices.forall(i => ix(keys(i)) == i))
    val stored = keys.toSet
    assert(Iterator.continually(rnd.nextLong() & Long.MaxValue).filterNot(stored).take(5000).forall(ix(_) == -1))
    intercept[IllegalArgumentException] { ix(0L) = 0 }
  }

  test("edge ids are assigned in sorted (u,v) order") {
    val g = LocalGraph.fromPairs(Array((2, 3), (0, 5), (0, 1)))
    assert(g.edges.toSeq == Seq((0, 1), (0, 5), (2, 3)))
  }
}
