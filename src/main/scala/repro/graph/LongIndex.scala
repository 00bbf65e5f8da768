package repro.graph

/** Open-addressing hash from non-negative Long keys to Int values, sized
  * for ``size`` keys and at most half full. Primitive arrays keep it
  * compact and its lookups free of allocation: the edge-id index of
  * [[LocalGraph]] is built on it, and the on-the-fly truss engine probes it
  * for every candidate triangle.
  */
final class LongIndex(size: Int) {
  private val mask = (Integer.highestOneBit(math.max(2, 2 * size)) << 1) - 1
  private val keys = Array.fill(mask + 1)(-1L)
  private val values = new Array[Int](mask + 1)
  private var used = 0

  private def slot(key: Long): Int = {
    val h = key * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt & mask
  }

  /** Store ``value`` under ``key`` (key ≥ 0, not yet present). */
  def update(key: Long, value: Int): Unit = {
    require(used < size, s"LongIndex sized for $size keys is full")
    used += 1
    var i = slot(key)
    while (keys(i) != -1L) i = (i + 1) & mask
    keys(i) = key
    values(i) = value
  }

  /** Value stored under ``key``, else -1. */
  def apply(key: Long): Int = {
    var i = slot(key)
    while (keys(i) != -1L) {
      if (keys(i) == key) return values(i)
      i = (i + 1) & mask
    }
    -1
  }
}
