package repro.core

/** The peeling baseline (Algorithm 1 of the paper): repeatedly process the
  * r-clique of minimum current S-degree, assign its κ_s, and decrement the
  * degrees of the other members of its still-alive s-cliques.
  *
  * This is the Batagelj–Zaversnik bucket algorithm generalized to any
  * [[Incidence]]; O(Σ|s-cliques| · arity) after the bucket sort, and
  * inherently sequential — the global minimum drives every step, which is
  * exactly the bottleneck the paper's local algorithms remove. An s-clique
  * is alive while none of its members has been processed, so it needs no
  * state of its own and the on-the-fly incidences peel the same way.
  */
object Peeling {

  /** κ_s indices of all r-cliques. */
  def decompose(inc: Incidence, threads: Int = 1): Array[Int] = decomposeWithOrder(inc, threads)._1

  /** κ_s indices plus the removal order of the peel — a non-decreasing-κ
    * processing order with consistent tie-breaking, used to exercise
    * Theorem 4 (AND in such an order converges in one iteration).
    *
    * @param threads workers for the d_s count only (the paper parallelizes
    *                it for peeling too, "for a fair comparison"); the peel
    *                loop itself is sequential
    */
  def decomposeWithOrder(inc: Incidence, threads: Int = 1): (Array[Int], Array[Int]) = {
    val n = inc.numR
    val kappa = new Array[Int](n)
    if (n == 0) return (kappa, Array.emptyIntArray)
    val deg = inc.degreeCounts(threads)
    val maxDeg = deg.max

    // Counting-sort buckets: vert = r-cliques ordered by current degree,
    // pos(r) = index of r in vert, bin(d) = start of bucket d.
    val bin = new Array[Int](maxDeg + 2)
    var i = 0
    while (i < n) { bin(deg(i) + 1) += 1; i += 1 }
    i = 1
    while (i <= maxDeg + 1) { bin(i) += bin(i - 1); i += 1 }
    val vert = new Array[Int](n)
    val pos = new Array[Int](n)
    val cur = java.util.Arrays.copyOf(bin, maxDeg + 1)
    i = 0
    while (i < n) { vert(cur(deg(i))) = i; pos(i) = cur(deg(i)); cur(deg(i)) += 1; i += 1 }

    val processed = new Array[Boolean](n)
    val g = new Gathered(inc, maxDeg)
    val o = g.others
    val buf = g.buf

    var p = 0
    while (p < n) {
      val r = vert(p)
      val level = deg(r)
      kappa(r) = level
      processed(r) = true
      val end = g.load(r) * o
      var k = 0
      while (k < end) {
        var alive = true
        var j = k
        while (j < k + o) { if (processed(buf(j))) alive = false; j += 1 }
        j = k
        while (alive && j < k + o) {
          val r2 = buf(j)
          // Decrement only while above the current peel level, so degrees
          // along the processing order stay non-decreasing.
          if (deg(r2) > level) {
            // Swap r2 with the first element of its bucket, then shrink.
            val d2 = deg(r2)
            val posR2 = pos(r2)
            val first = bin(d2)
            val firstR = vert(first)
            if (firstR != r2) {
              vert(posR2) = firstR; pos(firstR) = posR2
              vert(first) = r2; pos(r2) = first
            }
            bin(d2) += 1
            deg(r2) = d2 - 1
          }
          j += 1
        }
        k += o
      }
      p += 1
    }
    // vert was mutated in place by bucket swaps; the final prefix order is
    // exactly the removal order because position p was frozen at step p.
    (kappa, vert)
  }
}
