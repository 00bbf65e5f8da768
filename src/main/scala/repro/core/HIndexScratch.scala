package repro.core

/** Reusable per-thread scratch for the linear-time h-index H(K) of
  * Definition 4 (the largest h such that at least h elements of K are >= h),
  * the counting variant of the paper's §4.3, so the inner loops of SND/AND
  * allocate nothing.
  *
  * Usage: write the multiset into ``vals(0 until len)`` then call
  * ``hIndex(len)``. The counting array is cleared incrementally (only the
  * touched cells), so repeated calls cost O(len) regardless of capacity.
  *
  * @param capacity maximum multiset size that will ever be passed
  */
final class HIndexScratch(val capacity: Int) {
  val vals: Array[Int] = new Array[Int](capacity)
  private val cnt: Array[Int] = new Array[Int](capacity + 2)

  /** h-index of ``vals(0 until len)``; leaves the scratch clean. */
  def hIndex(len: Int): Int = {
    require(len <= capacity, s"len $len exceeds scratch capacity $capacity")
    var i = 0
    while (i < len) {
      // Values above len cannot raise the h-index beyond len: clamp.
      val v = math.min(vals(i), len)
      cnt(v) += 1
      i += 1
    }
    var h = len
    var cum = 0
    var ans = 0
    while (h >= 1) {
      cum += cnt(h)
      if (cum >= h) { ans = h; h = 0 } else h -= 1
    }
    // Incremental clear: reset exactly the cells we touched.
    i = 0
    while (i < len) { cnt(math.min(vals(i), len)) = 0; i += 1 }
    ans
  }
}
