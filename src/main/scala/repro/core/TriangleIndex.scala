package repro.core

import repro.graph.LongIndex

/** Triangle ids of a stride-3 triangle list (a < b < c, id = offset / 3),
  * keyed by (a·n + b)·n + c over the vertex count ``n``. The (3,4)
  * hypergraph build and the on-the-fly (3,4) engine both resolve K4 faces
  * through it.
  */
final class TriangleIndex(n: Int, tri: Array[Int]) {
  require(n <= TriangleIndex.MaxVertices,
          s"$n vertices: the triangle key (a*n+b)*n+c overflows a Long above ${TriangleIndex.MaxVertices}")

  private val ids = {
    val ix = new LongIndex(tri.length / 3)
    var t = 0
    while (t < tri.length / 3) { ix(key(tri(3 * t), tri(3 * t + 1), tri(3 * t + 2))) = t; t += 1 }
    ix
  }

  @inline private def key(a: Int, b: Int, c: Int): Long = (a.toLong * n + b) * n + c

  /** Id of the triangle a < b < c, else -1. */
  @inline def apply(a: Int, b: Int, c: Int): Int = ids(key(a, b, c))

  /** Id of the triangle {x, y, z}, corners in any order, else -1. */
  @inline def of(x: Int, y: Int, z: Int): Int = {
    var a = x; var b = y; var c = z
    if (a > b) { val t = a; a = b; b = t }
    if (b > c) { val t = b; b = c; c = t }
    if (a > b) { val t = a; a = b; b = t }
    apply(a, b, c)
  }
}

object TriangleIndex {

  /** Largest vertex count whose keys fit a Long: n³ − 1 ≤ 2⁶³ − 1. */
  val MaxVertices: Int = 1 << 21
}
