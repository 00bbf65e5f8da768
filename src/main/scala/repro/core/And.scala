package repro.core

/** AND — Asynchronous Nucleus Decomposition (Algorithm 3).
  *
  * Gauss-Seidel-style iteration: each r-clique reads the *latest* τ values
  * of its neighbours, which never increases any τ (Theorem 1) and therefore
  * only accelerates convergence; the worst interleaving degrades to SND. The
  * optional notification mechanism (the orange lines of Algorithm 3) keeps a
  * per-r-clique active flag so plateaued r-cliques are skipped until a
  * neighbour's update could actually change their h-index.
  *
  * With threads = 1 the run is deterministic in the given processing order
  * (Theorem 4: the non-decreasing-κ order converges in one iteration). With
  * threads > 1 the flags race, as in the paper's OpenMP implementation: a
  * worker can read a neighbour's τ just before that neighbour lowers it and
  * notifies, so a pass can find no change while some τ is still above κ.
  * With notification, a pass that changes nothing is therefore followed by
  * one verification pass with every flag set, and the run stops only if
  * that pass changes nothing too. A full pass that changes nothing wrote no
  * τ, so every r-clique read the same τ and that τ is a fixpoint of 𝒰; since
  * τ ≥ κ under any interleaving (Theorem 1), it is κ. Without notification
  * every pass is full and the last one is its own verification.
  */
object And {

  /** Run AND to convergence.
    *
    * @param inc         the (r,s) incidence
    * @param threads     workers for the d_s count and each pass
    *                    (1 = deterministic)
    * @param notify      enable the notification mechanism (orange lines)
    * @param order       processing order, a permutation of 0..numR-1
    *                    (default natural); matters only for threads = 1
    * @param onIteration optional observer: (pass number, τ) at each pass
    *                    barrier, τ₀ as pass 0, verification passes not
    *                    delivered; τ is read-only and valid until the next pass
    */
  def decompose(inc: Incidence, threads: Int = 1, notify: Boolean = true,
                order: Array[Int] = null,
                onIteration: (Int, Array[Int]) => Unit = null): IterResult = {
    require(order == null || isPermutation(order, inc.numR), "order must be a permutation of 0..numR-1")
    iterate(inc, threads, notify, order, snapshot = false, onIteration)
  }

  /** The pass loop of AND and of SND. With ``snapshot`` every pass first
    * copies τ into a buffer, reads that buffer and writes τ (SND's Jacobi
    * step); without it every pass reads τ in place. A null ``order`` is
    * the natural order, read as the loop index itself.
    */
  private[core] def iterate(inc: Incidence, threads: Int, notify: Boolean, order: Array[Int],
                            snapshot: Boolean, onIteration: (Int, Array[Int]) => Unit): IterResult = {
    val n = inc.numR
    val tau = inc.degreeCounts(threads)
    if (onIteration != null) onIteration(0, tau)
    val maxDeg = if (n == 0) 0 else tau.max
    val read = if (snapshot) new Array[Int](n) else tau
    val c: Array[Boolean] = if (notify) Array.fill(n)(true) else null
    val changed = new java.util.concurrent.atomic.AtomicBoolean(false)

    /** One pass over the order; returns the h-index evaluations it made,
      * counted per worker and summed after the pass's barrier.
      */
    def pass(): Long = {
      changed.set(false)
      if (snapshot) System.arraycopy(tau, 0, read, 0, n)
      val workers = new java.util.concurrent.ConcurrentLinkedQueue[Gathered]
      ParallelFor.dynamic(n, threads)(() => { val g = new Gathered(inc, maxDeg); workers.add(g); g }) { (idx, g) =>
        val r = if (order == null) idx else order(idx)
        if (c == null || c(r)) {
          // Clear before reading, so a notification that lands while r is
          // being computed survives to the next pass.
          if (c != null) c(r) = false
          g.computations += 1
          g.load(r)
          val hv = g.hIndex(read)
          val old = tau(r)
          if (hv != old) {
            changed.set(true)
            tau(r) = hv
            if (c != null) {
              // Notify only neighbours whose τ lies in (hv, old]: anything
              // at or below hv already saw a value >= its own; anything
              // above old cannot have counted us at its h-index threshold.
              val buf = g.buf
              val end = g.len * g.others
              var k = 0
              while (k < end) {
                val r2 = buf(k)
                val t2 = tau(r2)
                if (hv < t2 && t2 <= old) c(r2) = true
                k += 1
              }
            }
          }
        }
      }
      var sum = 0L
      workers.forEach(g => sum += g.computations)
      sum
    }

    var iterations = 0
    var active = Vector.empty[Long]
    var verifyPasses = 0
    var verifyComputations = 0L
    var go = n > 0
    while (go) {
      active :+= pass()
      if (changed.get()) iterations += 1 else go = false
      if (onIteration != null) onIteration(active.length, tau)
      if (!go && c != null) {
        java.util.Arrays.fill(c, true)
        verifyPasses += 1
        verifyComputations += pass()
        go = changed.get()
      }
    }
    IterResult(tau, iterations, active, verifyPasses, verifyComputations)
  }

  /** Whether ``order`` holds each of 0..n-1 exactly once. */
  private def isPermutation(order: Array[Int], n: Int): Boolean = order.length == n && {
    val seen = new Array[Boolean](n)
    order.forall(r => r >= 0 && r < n && !seen(r) && { seen(r) = true; true })
  }
}
