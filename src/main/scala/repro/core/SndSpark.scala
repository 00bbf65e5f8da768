package repro.core

import org.apache.spark.sql.{Column, DataFrame, Observation, SparkSession}
import org.apache.spark.sql.functions._

/** Pure-dataflow SND: the update operator 𝒰 expressed as Catalyst
  * aggregations, iterated to a fixpoint — the DataFrame rendering of
  * "Pregel-style iterative message passing", one message round
  * (r-clique → s-clique → r-clique) per pass.
  *
  * The state is one relation keyed by r-clique, (rid, tau, sids): the ids of
  * the s-cliques an r-clique belongs to travel with it, so the membership is
  * never joined again. One pass is two aggregations and no join:
  * {{{
  *   S ↦ sorted [(τ(R), R) : R ∈ S]                  (explode sids, groupBy(sid))
  *   ρ(S,R) = τ of S's first entry, or of its second if R is the first
  *   τ'(R)  = H({ρ(S,R) : S ∋ R})                    (groupBy(rid), built-in H)
  * }}}
  * The first entry holds S's least τ, so ρ is the least τ of S's *other*
  * members, ties included. The changed count is an [[Observation]] on the
  * pass, filled by the same job that runs the eager localCheckpoint (which
  * truncates lineage, so unbounded iteration stays stable under Spark); no
  * pass runs a separate count.
  *
  * Each aggregation runs on an explicit `repartition(P, key)` with P the
  * session's `defaultParallelism` (one task per core): the aggregation then
  * reuses that hash partitioning, so it needs no second exchange and no
  * map-side partial `collect_list`. A repartition given a count is also left
  * alone by adaptive query execution, which otherwise merges these small
  * shuffles into fewer tasks than cores (2–4 on 4 cores), and a stage
  * lasts as long as its slowest task.
  */
object SndSpark {

  /** Membership DataFrame (sid, rid) of a local [[Hypergraph]], for tests
    * and jobs that want to drive the dataflow engine from the same input:
    * row i of `spark.range` is member i of `h.members`, read from one
    * broadcast of the array, so no row is built on the driver.
    */
  def membershipOf(spark: SparkSession, h: Hypergraph): DataFrame = {
    import spark.implicits._
    val members = spark.sparkContext.broadcast(h.members)
    val arity = h.arity
    spark.range(h.members.length.toLong)
      .map(i => (i / arity, members.value(i.toInt).toLong))
      .toDF("sid", "rid")
  }

  /** H over an array column: sorted descending, the i-th value (0-based)
    * counts while it exceeds i.
    */
  private[core] def hIndex(xs: Column): Column =
    size(filter(sort_array(xs, asc = false), (x, i) => x > i))

  /** Run to convergence.
    *
    * @param membership (sid, rid) rows; every s-clique must have >= 2 members
    * @param numR       size of the r-clique universe (rids are 0..numR-1;
    *                   rids absent from ``membership`` have κ = 0)
    * @param maxIters   most passes with a change; a run that needs more
    *                   throws instead of returning an unconverged τ
    * @param onPass     optional observer called after every pass with
    *                   (pass number starting at 1, r-cliques whose τ changed)
    * @return (DataFrame (rid, kappa), iterations-with-change)
    */
  def decompose(spark: SparkSession, membership: DataFrame, numR: Long,
                maxIters: Int = 1000, onPass: (Int, Long) => Unit = null): (DataFrame, Int) = {
    val p = spark.sparkContext.defaultParallelism
    var state = membership.select(col("sid").cast("long"), col("rid").cast("long"))
      .repartition(p, col("rid")).groupBy("rid").agg(collect_list(col("sid")).as("sids"))
      .select(col("rid"), size(col("sids")).as("tau"), col("sids"))
      .localCheckpoint(true)
    var iterations = 0
    var converged = false
    while (!converged) {
      val perS = state
        .select(explode(col("sids")).as("sid"), struct(col("tau"), col("rid")).as("m"))
        .repartition(p, col("sid")).groupBy("sid").agg(sort_array(collect_list(col("m"))).as("ms"))
      val rho = perS
        .select(col("sid"), element_at(col("ms"), 1).as("a"), element_at(col("ms"), 2).as("b"),
                explode(col("ms")).as("m"))
        .select(col("sid"), col("m.rid").as("rid"), col("m.tau").as("prev"),
                when(col("m.rid") === col("a.rid"), col("b.tau")).otherwise(col("a.tau")).as("rho"))
      val changes = Observation()
      state = rho.repartition(p, col("rid")).groupBy("rid")
        .agg(hIndex(collect_list(col("rho"))).as("tau"), collect_list(col("sid")).as("sids"),
             min(col("prev")).as("prev"))
        .observe(changes, count_if(col("tau") =!= col("prev")).as("changed"))
        .select(col("rid"), col("tau"), col("sids"))
        .localCheckpoint(true)
      val changed = changes.get("changed").asInstanceOf[Long]
      if (onPass != null) onPass(iterations + 1, changed)
      if (changed == 0) converged = true
      else if (iterations == maxIters)
        throw new IllegalStateException(s"SndSpark: no fixpoint within maxIters = $maxIters iterations")
      else iterations += 1
    }
    val kappa = spark.range(numR).select(col("id").as("rid"))
      .join(state, Seq("rid"), "left")
      .select(col("rid"), coalesce(col("tau"), lit(0)).as("kappa"))
    (kappa, iterations)
  }
}
