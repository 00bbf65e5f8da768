package repro.cliques

import org.apache.spark.sql.DataFrame
import repro.graph.GraphOps
import repro.synth.GraphGen
import repro.testutil.TestGraphs
import repro.{Oracle, SparkSpec}

class FourCliquesSpec extends SparkSpec {
  import spark.implicits._

  private def k4s(edges: DataFrame): DataFrame = FourCliques.enumerate(edges, Triangles.enumerate(edges))

  test("K_n has C(n,4) four-cliques") {
    for (n <- 4 to 7) {
      val expected = n * (n - 1) * (n - 2) * (n - 3) / 24
      assert(k4s(GraphGen.complete(spark, n)).count() == expected, s"K$n")
    }
  }

  test("triangle-free and K4-free graphs yield zero") {
    val cycle = (0 until 8).map(i => (math.min(i, (i + 1) % 8).toLong, math.max(i, (i + 1) % 8).toLong))
    assert(k4s(cycle.toDF("u", "v")).count() == 0)
    // K4 minus one edge has a triangle but no K4.
    val diamond = Seq((0L, 1L), (0L, 2L), (1L, 2L), (1L, 3L), (2L, 3L)).toDF("u", "v")
    assert(k4s(diamond).count() == 0)
  }

  test("each K4 enumerated exactly once with a < b < c < d") {
    val edges = GraphOps.canonicalize(GraphGen.erdosRenyi(spark, 20, 110, seed = 8))
    val q = k4s(edges).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3)))
    assert(q.forall { case (a, b, c, d) => a < b && b < c && c < d })
    assert(q.distinct.length == q.length)
  }

  test("matches brute-force enumeration on random graphs") {
    for (seed <- 1 to 4) {
      val pairs = TestGraphs.randomGraph(14, 0.5, seed)
      val edges = pairs.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("u", "v")
      val got = k4s(edges).collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getLong(2).toInt, r.getLong(3).toInt))
        .sorted.toSeq
      assert(got == TestGraphs.fourCliques(pairs).toSeq, s"seed=$seed")
    }
  }

  test("matches DuckDB oracle on a random graph") {
    val edges = GraphOps.canonicalize(GraphGen.erdosRenyi(spark, 18, 90, seed = 9))
    val q = k4s(edges)
      .select($"a".cast("long").as("a"), $"b".cast("long").as("b"),
              $"c".cast("long").as("c"), $"d".cast("long").as("d"))
    Oracle.assertEquivalent(
      q,
      """SELECT CAST(ab.u AS BIGINT) AS a, CAST(ab.v AS BIGINT) AS b,
        |       CAST(ac.v AS BIGINT) AS c, CAST(ad.v AS BIGINT) AS d
        |FROM edges ab, edges ac, edges ad, edges bc, edges bd, edges cd
        |WHERE ac.u = ab.u AND ad.u = ab.u
        |  AND bc.u = ab.v AND bc.v = ac.v
        |  AND bd.u = ab.v AND bd.v = ad.v
        |  AND cd.u = ac.v AND cd.v = ad.v
        |  AND CAST(ab.v AS BIGINT) < CAST(ac.v AS BIGINT)
        |  AND CAST(ac.v AS BIGINT) < CAST(ad.v AS BIGINT)""".stripMargin,
      "edges" -> edges)
  }
}
