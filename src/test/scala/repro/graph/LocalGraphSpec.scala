package repro.graph

import repro.{Oracle, SparkSpec}
import repro.core.NucleusBuilder
import repro.synth.GraphGen
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

  test("fromEdges ranks ids past the Int range instead of narrowing them") {
    import spark.implicits._
    // Narrowing would read (1, 2^32 + 2) as a second (1, 2).
    val g = LocalGraph.fromEdges(Seq((1L, 2L), (1L, (1L << 32) + 2)).toDF("u", "v"))
    assert(g.n == 3 && g.m == 2)
    // Ranks: 2 -> 0 and 2^32 + 2 -> 1 (degree 1, by id), 1 -> 2 (degree 2).
    assert(g.edgeId(0, 2) == 0 && g.edgeId(1, 2) == 1)
    assert(LocalGraph.fromEdges(Seq((1L, 2L)).toDF("u", "v")).edgeId(0, 1) == 0)
  }

  test("fromEdges ranks vertices by (degree, id) like a DuckDB ROW_NUMBER relabel") {
    import spark.implicits._
    // G(60, 150) with its ids scattered over [-2e9, 4e9], out of order.
    val edges = GraphOps.canonicalize(GraphGen.erdosRenyi(spark, 60, 150, seed = 11)
      .select((($"u" * 7919 % 61 - 20) * 100000000L).as("u"), (($"v" * 7919 % 61 - 20) * 100000000L).as("v")))
    val ids = edges.as[(Long, Long)].collect().flatMap { case (u, v) => Seq(u, v) }
    assert(ids.max > Int.MaxValue && ids.min < 0)
    val degs = ids.groupBy(identity).values.map(_.length).toSeq
    assert(degs.distinct.length < degs.length, "the fixture needs degree ties")
    val g = LocalGraph.fromEdges(edges)
    Oracle.assertEquivalent(
      g.edges.toSeq.map { case (u, v) => (u.toLong, v.toLong) }.toDF("u", "v"),
      """WITH e AS (SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v FROM edges),
        |d AS (SELECT id, COUNT(*) AS deg FROM (SELECT u AS id FROM e UNION ALL SELECT v AS id FROM e) GROUP BY id),
        |r AS (SELECT id, ROW_NUMBER() OVER (ORDER BY deg, id) - 1 AS rk FROM d)
        |SELECT LEAST(a.rk, b.rk) AS u, GREATEST(a.rk, b.rk) AS v
        |FROM e JOIN r a ON e.u = a.id JOIN r b ON e.v = b.id""".stripMargin,
      "edges" -> edges)
    assert(NucleusBuilder.materialize(edges, maxS = 2).graph.edges.toSeq == g.edges.toSeq)
  }

  test("rejects non-canonical edges") {
    import spark.implicits._
    intercept[IllegalArgumentException] { LocalGraph.fromPairs(Array((1, 0))) }
    intercept[IllegalArgumentException] { LocalGraph.fromPairs(Array((-1, 0))) }
    intercept[IllegalArgumentException] { LocalGraph.fromEdges(Seq((9L, 5L)).toDF("u", "v")) }
  }

  test("rejects a repeated edge") {
    import spark.implicits._
    intercept[IllegalArgumentException] { LocalGraph.fromPairs(Array((0, 1), (0, 1))) }
    intercept[IllegalArgumentException] { LocalGraph.fromPairs(Array((0, 1), (0, 1), (0, 2), (1, 2))) }
    intercept[IllegalArgumentException] { LocalGraph.fromEdges(Seq((5L, 9L), (5L, 9L)).toDF("u", "v")) }
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
