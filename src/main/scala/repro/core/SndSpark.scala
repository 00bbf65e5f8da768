package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Observation, SparkSession}
import org.apache.spark.sql.functions._

/** Pure-dataflow SND: the update operator 𝒰 iterated to a fixpoint as
  * Spark shuffles and per-partition walks — "Pregel-style iterative
  * message passing", one message round (r-clique → s-clique → r-clique)
  * per pass, each pass one superstep.
  *
  * The state is one Dataset keyed by r-clique, [[RClique]] (rid, tau, sids,
  * prev): the ids of the s-cliques an r-clique belongs to travel with it, so
  * the membership is never joined again. One pass is two shuffles, each an
  * explicit `repartition(P, key)` sorted within its partitions, walked by
  * plain code and no aggregation:
  * {{{
  *   explode sids to (sid, rid, τ), sorted by (sid, τ)        [[rhoWalk]]
  *   ρ(S,R) = τ of S's first row, or of its second if R is the first
  *   (rid, sid, ρ, prev), sorted by rid                       [[tauWalk]]
  *   τ'(R)  = H({ρ(S,R) : S ∋ R}) by HIndexScratch
  * }}}
  * Each walk streams one group (one s-clique, one r-clique) at a time, so
  * a task holds one group and the sort below it can spill. τ₀ = d_s is the
  * per-r-clique walk over the membership with every ρ = `Int.MaxValue`: H of
  * d values that are all ≥ d is d. The changed count is an [[Observation]]
  * on the pass, filled by the same job that runs the eager localCheckpoint
  * (which truncates lineage, so unbounded iteration stays stable under
  * Spark); no pass runs a separate count.
  *
  * P is the session's `defaultParallelism`, one task per core: adaptive
  * query execution leaves a repartition given a count alone, where it
  * would merge these small shuffles into fewer tasks than cores (2–4 on 4
  * cores), and a stage lasts as long as its slowest task.
  */
object SndSpark {

  /** An r-clique after a pass: its τ, its s-cliques' ids, its τ before. */
  private[core] final case class RClique(rid: Long, tau: Int, sids: Array[Long], prev: Int)

  /** Member ``rid`` of s-clique ``sid``, with its τ. */
  private[core] final case class Slot(sid: Long, rid: Long, tau: Int)

  /** ρ(sid, rid) for the r-clique ``rid``, whose τ is ``prev``. */
  private[core] final case class Rho(rid: Long, sid: Long, rho: Int, prev: Int)

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

  /** The per-s-clique walk over slots sorted by (sid, tau): an s-clique's
    * first row holds its least τ and its second row the next, so every
    * member reads the least τ of the *other* members, ties included, from
    * those two alone.
    *
    * @throws IllegalArgumentException on an s-clique with fewer than 2 members
    */
  private[core] def rhoWalk(slots: Iterator[Slot]): Iterator[Rho] = {
    val in = slots.buffered
    var started = false
    var sid = 0L
    var least = 0
    in.map { m =>
      if (started && m.sid == sid) Rho(m.rid, m.sid, least, m.tau)
      else {
        if (!in.hasNext || in.head.sid != m.sid)
          throw new IllegalArgumentException(s"SndSpark: s-clique ${m.sid} has fewer than 2 members")
        started = true
        sid = m.sid
        least = m.tau
        Rho(m.rid, m.sid, in.head.tau, m.tau)
      }
    }
  }

  /** The per-r-clique walk over rows sorted by rid: each r-clique's τ′ is
    * H of its ρ's, its sids are kept and its τ before the pass is carried.
    */
  private[core] def tauWalk(rows: Iterator[Rho]): Iterator[RClique] = {
    val in = rows.buffered
    var h = new HIndexScratch(16)
    var sids = new Array[Long](16)
    in.map { first =>
      var n = 0
      var x = first
      while (x != null) {
        if (n == h.capacity) {
          val grown = new HIndexScratch(2 * n)
          System.arraycopy(h.vals, 0, grown.vals, 0, n)
          h = grown
          sids = java.util.Arrays.copyOf(sids, 2 * n)
        }
        h.vals(n) = x.rho
        sids(n) = x.sid
        n += 1
        x = if (in.hasNext && in.head.rid == first.rid) in.next() else null
      }
      RClique(first.rid, h.hIndex(n), java.util.Arrays.copyOf(sids, n), first.prev)
    }
  }

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
    import spark.implicits._
    val p = spark.sparkContext.defaultParallelism
    def walk[A, B: Encoder](ds: Dataset[A], key: String, more: String*)(f: Iterator[A] => Iterator[B]) =
      ds.repartition(p, col(key)).sortWithinPartitions(key, more: _*).mapPartitions(f)

    val init = membership.select(col("rid").cast("long"), col("sid").cast("long"),
                                 lit(Int.MaxValue).as("rho"), lit(0).as("prev")).as[Rho]
    var state = walk(init, "rid")(tauWalk).localCheckpoint(true)
    var iterations = 0
    var converged = false
    while (!converged) {
      val slots = state.flatMap(r => r.sids.iterator.map(Slot(_, r.rid, r.tau)))
      val changes = Observation()
      state = walk(walk(slots, "sid", "tau")(rhoWalk), "rid")(tauWalk)
        .observe(changes, count_if(col("tau") =!= col("prev")).as("changed"))
        .localCheckpoint(true)
      val changed = changes.get("changed").asInstanceOf[Long]
      if (onPass != null) onPass(iterations + 1, changed)
      if (changed == 0) converged = true
      else if (iterations == maxIters)
        throw new IllegalStateException(s"SndSpark: no fixpoint within maxIters = $maxIters iterations")
      else iterations += 1
    }
    val kappa = spark.range(numR).select(col("id").as("rid"))
      .join(state.select(col("rid"), col("tau")), Seq("rid"), "left")
      .select(col("rid"), coalesce(col("tau"), lit(0)).as("kappa"))
    (kappa, iterations)
  }
}
