package repro.graph

import org.apache.spark.sql.DataFrame
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

  /** Relabel the vertices of a canonical edge DataFrame as 0..n-1 in
    * non-decreasing (degree, id) order and return it, still canonical, in
    * the new id space: the edges of [[LocalGraph.fromEdges]], which holds
    * the one ranking, as a DataFrame (the edges are collected and ranked on
    * the driver). Row i of `spark.range` is edge i, read from one broadcast
    * of the flattened (u, v) array, so the rows do not ride inside the tasks.
    * Relabelling the result again changes no id.
    */
  def relabelByDegree(edges: DataFrame): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val es = LocalGraph.fromEdges(edges).edges
    val uv = spark.sparkContext.broadcast(es.flatMap { case (u, v) => Array(u, v) })
    spark.range(es.length.toLong)
      .map { i => val j = 2 * i.toInt; (uv.value(j).toLong, uv.value(j + 1).toLong) }
      .toDF("u", "v")
  }
}
