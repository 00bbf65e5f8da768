package repro.core

import repro.SparkSpec
import repro.graph.LocalGraph
import repro.synth.GraphGen
import repro.testutil.TestGraphs

class NucleusBuilderSpec extends SparkSpec {

  test("materialize collects consistent counts on K6") {
    val m = NucleusBuilder.materialize(GraphGen.complete(spark, 6))
    assert(m.graph.n == 6 && m.graph.m == 15)
    assert(m.numTriangles == 20 && m.numQuads == 15)
  }

  test("materialize with maxS=2 skips clique enumeration") {
    val m = NucleusBuilder.materialize(GraphGen.complete(spark, 5), maxS = 2)
    assert(m.graph.m == 10 && m.numTriangles == 0 && m.numQuads == 0)
  }

  test("materialize with maxS=3 skips K4s only") {
    val m = NucleusBuilder.materialize(GraphGen.complete(spark, 5), maxS = 3)
    assert(m.numTriangles == 10 && m.numQuads == 0)
  }

  test("Spark-materialized hypergraphs agree with locally built ones on kappa") {
    // The Spark path relabels by degree, so compare decomposition results as
    // sorted multisets (kappa values are label-invariant).
    for (seed <- 1 to 3; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val pairs = TestGraphs.randomGraph(18, 0.35, seed)
      import spark.implicits._
      val df = pairs.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("u", "v")
      val hSpark = NucleusBuilder.hypergraph(NucleusBuilder.materialize(df), r, s)
      val hLocal = TestGraphs.hypergraph(pairs, r, s)
      assert(hSpark.numR == hLocal.numR && hSpark.numS == hLocal.numS,
             s"(r,s)=($r,$s) seed=$seed sizes")
      assert(Peeling.decompose(hSpark).sorted.toSeq == Peeling.decompose(hLocal).sorted.toSeq,
             s"(r,s)=($r,$s) seed=$seed kappa multiset")
    }
  }

  test("truss hypergraph members reference real edges of each triangle") {
    val pairs = TestGraphs.randomGraph(15, 0.4, 11)
    val m = TestGraphs.materialize(pairs)
    val h = NucleusBuilder.trussHypergraph(m)
    for (t <- 0 until m.numTriangles) {
      val vs = Set(m.tri(3 * t), m.tri(3 * t + 1), m.tri(3 * t + 2))
      h.members.slice(3 * t, 3 * t + 3).foreach { e =>
        val (a, b) = m.graph.edges(e)
        assert(vs.contains(a) && vs.contains(b))
      }
    }
  }

  test("(3,4) hypergraph members reference the four faces of each K4") {
    val pairs = TestGraphs.randomGraph(12, 0.55, 12)
    val m = TestGraphs.materialize(pairs)
    val h = NucleusBuilder.nucleus34Hypergraph(m)
    for (q <- 0 until m.numQuads) {
      val vs = Set(m.quad(4 * q), m.quad(4 * q + 1), m.quad(4 * q + 2), m.quad(4 * q + 3))
      val faces = scala.collection.mutable.Set.empty[Set[Int]]
      h.members.slice(4 * q, 4 * q + 4).foreach { t =>
        faces += Set(m.tri(3 * t), m.tri(3 * t + 1), m.tri(3 * t + 2))
      }
      assert(faces.size == 4 && faces.forall(_.subsetOf(vs)))
    }
  }

  test("truss hypergraph rejects a listed non-triangle") {
    // (1,2,3) is a path: the graph has no edge (1,3).
    val g = LocalGraph.fromPairs(Array((0, 1), (0, 2), (1, 2), (2, 3)))
    val m = NucleusBuilder.Materialized(g, Array(0, 1, 2, 1, 2, 3), Array.emptyIntArray)
    intercept[IllegalArgumentException] { NucleusBuilder.trussHypergraph(m) }
  }

  test("hypergraph dispatch rejects unsupported (r,s)") {
    val m = TestGraphs.materialize(TestGraphs.complete(4))
    intercept[RuntimeException] { NucleusBuilder.hypergraph(m, 2, 4) }
  }

  test("flat sizes fail loudly past Int.MaxValue") {
    assert(NucleusBuilder.flatSize(Int.MaxValue / 4, 4) == Int.MaxValue / 4 * 4)
    for (stride <- 2 to 4) intercept[ArithmeticException](NucleusBuilder.flatSize(Int.MaxValue / stride + 1, stride))
  }
}
