package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.cliques.{FourCliques, Triangles}
import repro.graph.{GraphOps, LocalGraph}
import repro.synth.GraphGen
import repro.testutil.TestGraphs

class NucleusBuilderSpec extends SparkSpec {
  import spark.implicits._

  private def df(pairs: Array[(Int, Int)]): DataFrame = pairs.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("u", "v")

  private val bySeq = Ordering.Implicits.seqOrdering[Seq, Int]

  /** Rows of a Spark clique enumeration as vertex tuples, ascending. */
  private def rows(cliques: DataFrame): Seq[Seq[Int]] =
    cliques.collect().map(r => (0 until r.length).map(r.getLong(_).toInt): Seq[Int]).toSeq.sorted(bySeq)

  /** Random graphs and complete graphs: the fixtures of the listing tests. */
  private val fixtures = (1 to 4).map(seed => s"random seed=$seed" -> TestGraphs.randomGraph(16, 0.5, seed)) ++
    (4 to 7).map(n => s"K$n" -> TestGraphs.complete(n))

  test("materialize collects consistent counts on K6") {
    val m = NucleusBuilder.materialize(GraphGen.complete(spark, 6))
    assert(m.graph.n == 6 && m.graph.m == 15)
    assert(m.numTriangles == 20 && m.numQuads == 15)
  }

  test("materialize with maxS=2 skips clique enumeration") {
    val m = NucleusBuilder.materialize(GraphGen.complete(spark, 5), maxS = 2)
    assert(m.graph.m == 10 && m.numTriangles == 0 && m.numQuads == 0)
  }

  test("driver triangle list equals the Spark enumeration and brute force") {
    for ((label, pairs) <- fixtures) {
      val edges = df(pairs)
      val m = NucleusBuilder.materialize(edges)
      val listed = m.tri.grouped(3).map(_.toSeq).toSeq
      assert(listed == TestGraphs.triangles(m.graph.edges).toSeq.map(t => Seq(t._1, t._2, t._3)), s"$label: brute force")
      assert(listed == rows(Triangles.enumerate(GraphOps.relabelByDegree(GraphOps.canonicalize(edges)))),
             s"$label: Spark")
    }
  }

  test("(3,4) hypergraph s-cliques equal the Spark K4s and brute force, for sorted and shuffled triangles") {
    for ((label, pairs) <- fixtures) {
      val edges = df(pairs)
      val m = NucleusBuilder.materialize(edges)
      val rel = GraphOps.relabelByDegree(GraphOps.canonicalize(edges))
      val brute = TestGraphs.k4Tuples(m)
      assert(rows(FourCliques.enumerate(rel, Triangles.enumerate(rel))) == brute, s"$label: references disagree")
      for ((mm, order) <- Seq((m, "sorted"), (TestGraphs.shuffled(m, 5), "shuffled"))) {
        assert(TestGraphs.k4Sets(mm) == brute, s"$label, $order")
        assert(mm.numQuads == brute.length, s"$label, $order: numQuads")
      }
    }
  }

  test("numQuads is C(n,4) on K_n") {
    for (n <- 3 to 8) {
      val want = n * (n - 1) * (n - 2) * (n - 3) / 24
      assert(NucleusBuilder.materialize(GraphGen.complete(spark, n)).numQuads == want, s"K$n, Spark input")
      assert(TestGraphs.shuffled(TestGraphs.materialize(TestGraphs.complete(n)), n).numQuads == want, s"K$n, shuffled")
    }
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
    val m = TestGraphs.shuffled(TestGraphs.materialize(pairs), 12)
    assert(TestGraphs.k4Sets(m) == TestGraphs.k4Tuples(m))
  }

  test("truss hypergraph rejects a listed non-triangle") {
    // (1,2,3) is a path: the graph has no edge (1,3).
    val g = LocalGraph.fromPairs(Array((0, 1), (0, 2), (1, 2), (2, 3)))
    val m = NucleusBuilder.Materialized(g, Array(0, 1, 2, 1, 2, 3))
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

  test("s-clique counts fail loudly past Int.MaxValue") {
    // The listings size their arrays, and numQuads counts K4s, from the
    // summed S-degrees, which pass Int.MaxValue before the count does.
    val full = Array.fill(4)(Int.MaxValue)
    assert(NucleusBuilder.sCliqueCount(full, 4) == Int.MaxValue)
    assert(NucleusBuilder.sCliqueCount(full :+ 3, 4) == Int.MaxValue)
    intercept[ArithmeticException](NucleusBuilder.sCliqueCount(full :+ 4, 4))
    intercept[ArithmeticException](NucleusBuilder.sCliqueCount(Array.fill(3)(Int.MaxValue) :+ 3, 3))
  }
}
