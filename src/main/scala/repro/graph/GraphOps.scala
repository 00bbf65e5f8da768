package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame operations over undirected simple graphs.
  *
  * A graph is a canonical edge DataFrame with two long columns ``u`` and
  * ``v`` such that ``u < v``, with no duplicates and no self loops. All
  * downstream clique enumeration assumes this invariant, so every generator
  * and loader funnels through [[canonicalize]].
  */
object GraphOps {

  /** Canonicalize an arbitrary (src, dst) edge DataFrame: drop self loops,
    * order endpoints as ``u < v``, and de-duplicate. Column names of the
    * input are positional (first two columns are the endpoints).
    */
  def canonicalize(edges: DataFrame): DataFrame = {
    val c = edges.columns
    edges
      .select(col(c(0)).cast("long").as("a"), col(c(1)).cast("long").as("b"))
      .where(col("a") =!= col("b"))
      .select(least(col("a"), col("b")).as("u"), greatest(col("a"), col("b")).as("v"))
      .distinct()
  }

  /** Per-vertex degree (columns ``id``, ``deg``); only vertices with
    * degree >= 1 appear.
    */
  def degrees(edges: DataFrame): DataFrame =
    edges.select(col("u").as("id")).union(edges.select(col("v").as("id")))
      .groupBy("id").agg(count(lit(1)).cast("long").as("deg"))

  /** Relabel the vertices of a canonical edge DataFrame as 0..n-1 in
    * non-decreasing (degree, id) order and return it, still canonical, in
    * the new id space. With this labelling the orientation ``u < v`` is the
    * standard degree-ordered orientation, which bounds the out-degree of
    * every vertex by the graph degeneracy-ish O(sqrt(m)) and keeps
    * triangle/K4 join fan-out small on skewed graphs.
    */
  def relabelByDegree(edges: DataFrame): DataFrame = {
    val spark = edges.sparkSession
    // n is at most a few 10k in this reproduction: build the rank map on the
    // driver (deterministic), then broadcast-map both endpoints.
    val degs = degrees(edges).collect().map(r => (r.getLong(0), r.getLong(1)))
    val rank = degs.sortBy { case (id, d) => (d, id) }.iterator.zipWithIndex
      .map { case ((id, _), i) => (id, i.toLong) }.toMap
    val rankB = spark.sparkContext.broadcast(rank)
    val remap = udf((id: Long) => rankB.value(id))
    // The relabel is a bijection, so canonical input stays loop- and
    // duplicate-free: reordering each edge's endpoints is all it needs.
    edges.select(remap(col("u")).as("a"), remap(col("v")).as("b"))
      .select(least(col("a"), col("b")).as("u"), greatest(col("a"), col("b")).as("v"))
  }
}
