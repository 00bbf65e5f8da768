package repro.core

/** Test oracles for the h-index function H(K) of Definition 4: [[naive]] is
  * the textbook sort-based definition, [[linear]] a one-shot call of the
  * engines' [[HIndexScratch]].
  */
object HIndex {

  /** O(k log k) reference implementation straight from Definition 4. */
  def naive(xs: Seq[Int]): Int = {
    val sorted = xs.sortBy(-_)
    var h = 0
    var i = 0
    while (i < sorted.length && sorted(i) >= i + 1) { h = i + 1; i += 1 }
    h
  }

  /** One-shot linear h-index of ``values(0 until len)``. */
  def linear(values: Array[Int], len: Int): Int = {
    val s = new HIndexScratch(len)
    System.arraycopy(values, 0, s.vals, 0, len)
    s.hIndex(len)
  }
}
