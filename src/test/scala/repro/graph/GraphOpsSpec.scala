package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  private def df(pairs: (Long, Long)*) = pairs.toDF("u", "v")

  test("canonicalize drops self loops") {
    val g = GraphOps.canonicalize(df((1L, 1L), (1L, 2L)))
    assert(g.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq == Seq((1L, 2L)))
  }

  test("canonicalize orders endpoints and dedups both directions") {
    val g = GraphOps.canonicalize(df((2L, 1L), (1L, 2L), (1L, 2L)))
    assert(g.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq == Seq((1L, 2L)))
  }

  test("degrees match DuckDB oracle") {
    val edges = GraphOps.canonicalize(repro.synth.GraphGen.erdosRenyi(spark, 50, 120, seed = 1))
    val degs = GraphOps.degrees(edges)
      .select($"id".cast("long").as("id"), $"deg".cast("long").as("deg"))
    Oracle.assertEquivalent(
      degs,
      """SELECT CAST(id AS BIGINT) AS id, COUNT(*) AS deg
        |FROM (SELECT u AS id FROM edges UNION ALL SELECT v AS id FROM edges)
        |GROUP BY id""".stripMargin,
      "edges" -> edges)
  }

  test("relabelByDegree preserves graph size and degree multiset") {
    val edges = GraphOps.canonicalize(repro.synth.GraphGen.erdosRenyi(spark, 60, 150, seed = 2))
    val rel = GraphOps.relabelByDegree(edges)
    assert(rel.count() == edges.count())
    val d0 = GraphOps.degrees(edges).select("deg").as[Long].collect().sorted.toSeq
    val d1 = GraphOps.degrees(rel).select("deg").as[Long].collect().sorted.toSeq
    assert(d0 == d1)
  }

  test("relabelByDegree assigns ids in non-decreasing degree order") {
    val edges = GraphOps.canonicalize(repro.synth.GraphGen.erdosRenyi(spark, 40, 100, seed = 3))
    val rel = GraphOps.relabelByDegree(edges)
    val degById = GraphOps.degrees(rel).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    assert(degById.map(_._2).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)))
  }

  test("relabelByDegree produces dense ids 0..n-1") {
    val edges = GraphOps.canonicalize(df((100L, 200L), (200L, 300L), (5L, 100L)))
    val rel = GraphOps.relabelByDegree(edges)
    val ids = GraphOps.degrees(rel).collect().map(_.getLong(0)).sorted.toSeq
    assert(ids == (0L until ids.length).toSeq)
  }
}
