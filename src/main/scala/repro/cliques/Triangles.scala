package repro.cliques

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed triangle enumeration over canonical edge DataFrames.
  *
  * Uses the classic oriented-wedge join: with edges oriented low-id to
  * high-id, every triangle a < b < c is produced exactly once as the wedge
  * (a,b),(a,c) closed by the edge (b,c). Feed ids relabelled by degree rank
  * ([[repro.graph.GraphOps.relabelByDegree]]) so hub fan-out stays bounded
  * on skewed graphs.
  *
  * The program lists triangles on the driver
  * ([[repro.core.NucleusBuilder.triangles]]); this DataFrame version is the
  * DuckDB-checked reference the tests compare that listing against.
  */
object Triangles {

  /** All triangles as rows (a, b, c) with a < b < c. */
  def enumerate(edges: DataFrame): DataFrame = {
    val e1 = edges.select(col("u").as("a"), col("v").as("b"))
    val e2 = edges.select(col("u").as("a2"), col("v").as("c"))
    val wedges = e1.join(e2, col("a") === col("a2") && col("b") < col("c"))
      .select(col("a"), col("b"), col("c"))
    val closing = edges.select(col("u").as("b"), col("v").as("c"))
    wedges.join(closing, Seq("b", "c")).select(col("a"), col("b"), col("c"))
  }
}
