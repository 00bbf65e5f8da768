package repro.cliques

import org.apache.spark.sql.functions._
import repro.graph.GraphOps
import repro.synth.GraphGen
import repro.testutil.TestGraphs
import repro.{Oracle, SparkSpec}

class TrianglesSpec extends SparkSpec {
  import spark.implicits._

  test("K_n has C(n,3) triangles") {
    for (n <- 3 to 7) {
      val expected = n * (n - 1) * (n - 2) / 6
      assert(Triangles.enumerate(GraphGen.complete(spark, n)).count() == expected, s"K$n")
    }
  }

  test("cycle has no triangles") {
    val pairs = (0 until 8).map(i => (math.min(i, (i + 1) % 8).toLong, math.max(i, (i + 1) % 8).toLong))
    assert(Triangles.enumerate(pairs.toDF("u", "v")).count() == 0)
  }

  test("each triangle enumerated exactly once with a < b < c") {
    val edges = GraphOps.canonicalize(GraphGen.erdosRenyi(spark, 30, 120, seed = 5))
    val t = Triangles.enumerate(edges).collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2)))
    assert(t.forall { case (a, b, c) => a < b && b < c })
    assert(t.distinct.length == t.length)
  }

  test("matches brute-force enumeration on random graphs") {
    for (seed <- 1 to 4) {
      val pairs = TestGraphs.randomGraph(20, 0.3, seed)
      val edges = pairs.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("u", "v")
      val got = Triangles.enumerate(edges).collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getLong(2).toInt)).sorted.toSeq
      assert(got == TestGraphs.triangles(pairs).toSeq, s"seed=$seed")
    }
  }

  test("matches DuckDB oracle on a random graph") {
    val edges = GraphOps.canonicalize(GraphGen.erdosRenyi(spark, 40, 150, seed = 6))
    val t = Triangles.enumerate(edges)
      .select($"a".cast("long").as("a"), $"b".cast("long").as("b"), $"c".cast("long").as("c"))
    Oracle.assertEquivalent(
      t,
      """SELECT CAST(e1.u AS BIGINT) AS a, CAST(e1.v AS BIGINT) AS b, CAST(e2.v AS BIGINT) AS c
        |FROM edges e1, edges e2, edges e3
        |WHERE e1.u = e2.u AND CAST(e1.v AS BIGINT) < CAST(e2.v AS BIGINT)
        |  AND e3.u = e1.v AND e3.v = e2.v""".stripMargin,
      "edges" -> edges)
  }
}
