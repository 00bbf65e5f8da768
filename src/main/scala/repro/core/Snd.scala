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
  * processing order and thread count. It is [[And]]'s pass loop reading that
  * snapshot, with no notification.
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
                onIteration: (Int, Array[Int]) => Unit = null): IterResult =
    And.iterate(inc, threads, notify = false, order = null, snapshot = true, onIteration)
}
