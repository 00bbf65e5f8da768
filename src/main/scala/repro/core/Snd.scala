package repro.core

/** Result of an iterative local decomposition run.
  *
  * @param kappa           converged κ_s indices
  * @param iterations      passes in which at least one τ changed
  * @param activeTrace     per-pass count of r-cliques actually recomputed
  * @param verifyPasses    AND with notification only: full passes run
  *                        after a no-change pass to confirm the fixpoint;
  *                        counted in none of the other fields
  * @param verifyTauComputations h-index evaluations of those passes
  */
final case class IterResult(
    kappa: Array[Int],
    iterations: Int,
    activeTrace: Vector[Long],
    verifyPasses: Int = 0,
    verifyTauComputations: Long = 0L,
) {
  /** Total passes executed (iterations + the final no-change pass that
    * detects convergence).
    */
  def passes: Int = activeTrace.length

  /** Number of h-index evaluations performed (τ₀ initialization excluded). */
  def tauComputations: Long = activeTrace.sum
}

/** SND — Synchronous Nucleus Decomposition (Algorithm 2).
  *
  * Jacobi-style iteration of the update operator 𝒰 (Definition 5): every
  * pass computes all τ values from the previous pass's snapshot, so the
  * result and the iteration count are deterministic and independent of both
  * processing order and thread count.
  */
object Snd {

  /** Run SND to convergence.
    *
    * @param inc         the (r,s) incidence
    * @param threads     parallel workers for the d_s count and each pass
    *                    (1 = sequential)
    * @param onIteration optional observer called at every pass barrier
    *                    with (pass number starting at 1, τ), τ₀ as pass 0;
    *                    τ is read-only and valid until the next pass
    */
  def decompose(inc: Incidence, threads: Int = 1,
                onIteration: (Int, Array[Int]) => Unit = null): IterResult = {
    val n = inc.numR
    val tau = inc.degreeCounts(threads)
    if (onIteration != null) onIteration(0, tau)
    val tauP = new Array[Int](n)
    val maxDeg = if (n == 0) 0 else tau.max
    val changed = new java.util.concurrent.atomic.AtomicBoolean(false)
    var iterations = 0
    var active = Vector.empty[Long]
    var go = n > 0
    while (go) {
      System.arraycopy(tau, 0, tauP, 0, n)
      changed.set(false)
      ParallelFor.dynamic(n, threads)(() => new Gathered(inc, maxDeg)) { (r, g) =>
        g.load(r)
        val hv = g.hIndex(tauP)
        if (hv != tauP(r)) changed.set(true)
        tau(r) = hv
      }
      active :+= n.toLong
      if (changed.get()) iterations += 1 else go = false
      if (onIteration != null) onIteration(active.length, tau)
    }
    IterResult(tau, iterations, active)
  }
}
