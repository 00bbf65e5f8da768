package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import GraphOpsSpec.degrees

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
    val degs = degrees(edges)
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
    val d0 = degrees(edges).select("deg").as[Long].collect().sorted.toSeq
    val d1 = degrees(rel).select("deg").as[Long].collect().sorted.toSeq
    assert(d0 == d1)
  }

  test("relabelByDegree assigns ids in non-decreasing degree order") {
    val edges = GraphOps.canonicalize(repro.synth.GraphGen.erdosRenyi(spark, 40, 100, seed = 3))
    val rel = GraphOps.relabelByDegree(edges)
    val degById = degrees(rel).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1)
    assert(degById.map(_._2).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)))
  }

  test("relabelByDegree produces dense ids 0..n-1") {
    val edges = GraphOps.canonicalize(df((100L, 200L), (200L, 300L), (5L, 100L)))
    val rel = GraphOps.relabelByDegree(edges)
    val ids = degrees(rel).collect().map(_.getLong(0)).sorted.toSeq
    assert(ids == (0L until ids.length).toSeq)
  }

  test("relabelByDegree is idempotent under fromEdges") {
    // Sparse, shuffled ids: the relabel moves every id, and ranking its
    // output again must move none.
    val edges = GraphOps.canonicalize(repro.synth.GraphGen.chungLu(spark, 300, 1200, 0.5, seed = 4)
      .select(($"u" * 7919 % 307 * 1000).as("u"), ($"v" * 7919 % 307 * 1000).as("v")))
    val direct = LocalGraph.fromEdges(edges).edges.toSeq
    assert(LocalGraph.fromEdges(GraphOps.relabelByDegree(edges)).edges.toSeq == direct)
    assert(GraphOps.relabelByDegree(edges).as[(Long, Long)].collect().toSeq.sorted ==
           direct.map { case (u, v) => (u.toLong, v.toLong) })
  }
}

object GraphOpsSpec {

  /** Per-vertex degree of a canonical edge DataFrame (columns ``id``,
    * ``deg``); only vertices with degree >= 1 appear.
    */
  def degrees(edges: DataFrame): DataFrame =
    edges.select(col("u").as("id")).union(edges.select(col("v").as("id")))
      .groupBy("id").agg(count(lit(1)).cast("long").as("deg"))
}
