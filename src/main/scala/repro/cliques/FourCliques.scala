package repro.cliques

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed 4-clique (K4) enumeration.
  *
  * Extends each triangle a < b < c by a fourth vertex d > c that is adjacent
  * to all three, so every K4 is produced exactly once as (a, b, c, d) with
  * a < b < c < d. The extension joins run against the oriented edge list,
  * mirroring [[Triangles]].
  *
  * The program finds K4s with the (3,4) on-the-fly merge
  * ([[repro.core.NucleusBuilder.nucleus34Hypergraph]]); this DataFrame
  * version is the DuckDB-checked reference the tests compare it against.
  */
object FourCliques {

  /** All 4-cliques as rows (a, b, c, d) with a < b < c < d. */
  def enumerate(edges: DataFrame, triangles: DataFrame): DataFrame = {
    val ext = edges.select(col("u").as("c"), col("v").as("d"))
    val cand = triangles.join(ext, Seq("c")) // d adjacent to c, d > c
    val ad = edges.select(col("u").as("a"), col("v").as("d"))
    val bd = edges.select(col("u").as("b"), col("v").as("d"))
    cand
      .join(ad, Seq("a", "d"), "left_semi")
      .join(bd, Seq("b", "d"), "left_semi")
      .select(col("a"), col("b"), col("c"), col("d"))
  }
}
