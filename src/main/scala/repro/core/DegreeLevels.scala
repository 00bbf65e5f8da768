package repro.core

/** Degree levels (Definition 6) — the paper's convergence upper bound.
  *
  * Level L_i is the set of r-cliques of minimum S-degree once all earlier
  * levels (and every s-clique touching them) are removed. Theorem 3 shows
  * the r-cliques of L_i converge within i SND iterations, so the number of
  * levels bounds the iteration count of both SND and AND; Table 4 compares
  * this bound with the measured iteration counts.
  */
object DegreeLevels {

  /** Level index of every r-clique (0-based). As in [[Peeling]], an
    * s-clique is alive while none of its other members has been removed, so
    * it needs no state of its own and every [[Incidence]] gives the same
    * levels.
    */
  def levels(inc: Incidence): Array[Int] = {
    val n = inc.numR
    val level = new Array[Int](n)
    if (n == 0) return level
    val deg = inc.degreeCounts(1)
    val g = new Gathered(inc, deg.max)
    val o = g.others
    val sBuf = g.buf
    val removed = new Array[Boolean](n)
    var remaining = n
    var lvl = 0
    val buf = new Array[Int](n)
    while (remaining > 0) {
      var minDeg = Int.MaxValue
      var i = 0
      while (i < n) {
        if (!removed(i) && deg(i) < minDeg) minDeg = deg(i)
        i += 1
      }
      var cnt = 0
      i = 0
      while (i < n) {
        if (!removed(i) && deg(i) == minDeg) { buf(cnt) = i; cnt += 1 }
        i += 1
      }
      // Remove the whole level at once: each s-clique of a removed r-clique
      // that no earlier removal killed decrements its other members' degrees.
      var j = 0
      while (j < cnt) {
        val r = buf(j)
        level(r) = lvl
        removed(r) = true
        val end = g.load(r) * o
        var k = 0
        while (k < end) {
          var alive = true
          var q = k
          while (q < k + o) { if (removed(sBuf(q))) alive = false; q += 1 }
          q = k
          while (alive && q < k + o) { deg(sBuf(q)) -= 1; q += 1 }
          k += o
        }
        j += 1
      }
      remaining -= cnt
      lvl += 1
    }
    level
  }

  /** Number of levels (Table 4's "Degree Levels" row). */
  def count(inc: Incidence): Int = {
    val l = levels(inc)
    if (l.isEmpty) 0 else l.max + 1
  }
}
