package repro.core

import repro.graph.LocalGraph

/** Triangles of a stride-3 triangle list (a < b < c, id = offset / 3),
  * indexed per edge: a CSR over ``g``'s edge ids that lists, for each edge,
  * the third vertices of its triangles in ascending order with their
  * triangle ids, plus each triangle's three edge ids (ab, ac, bc). The
  * on-the-fly (3,4) engine, and through it the (3,4) hypergraph build,
  * finds K4s by merging these lists; it stores triangles only, never K4s.
  * Build it with [[TriangleIndex.apply]].
  *
  * @param triEdges edge ids of triangle t at 3t, 3t+1, 3t+2: (ab, ac, bc)
  * @param off      edge e's triangles sit at [off(e), off(e+1))
  * @param third    third vertex of each listed triangle, ascending per edge
  * @param ids      triangle id of each listed triangle
  */
final class TriangleIndex private (
    private[core] val triEdges: Array[Int],
    private[core] val off: Array[Int],
    private[core] val third: Array[Int],
    private[core] val ids: Array[Int],
) {
  /** Most triangles on any one edge; bounds every triangle's K4 count. */
  lazy val maxPerEdge: Int = (0 until off.length - 1).foldLeft(0)((mx, e) => math.max(mx, off(e + 1) - off(e)))
}

object TriangleIndex {

  /** Edge ids (ab, ac, bc) of each triangle of the stride-3 list ``tri``,
    * flattened the same way; throws ``IllegalArgumentException`` if a listed
    * triple is not a triangle of ``g``. The (2,3) hypergraph's members.
    */
  def edgeIds(g: LocalGraph, tri: Array[Int]): Array[Int] = {
    val triEdges = new Array[Int](tri.length)
    var t = 0
    while (t < tri.length / 3) {
      val a = tri(3 * t); val b = tri(3 * t + 1); val c = tri(3 * t + 2)
      val ab = g.edgeId(a, b); val ac = g.edgeId(a, c); val bc = g.edgeId(b, c)
      require(ab >= 0 && ac >= 0 && bc >= 0, s"($a,$b,$c) is not a triangle of the graph")
      triEdges(3 * t) = ab; triEdges(3 * t + 1) = ac; triEdges(3 * t + 2) = bc
      t += 1
    }
    triEdges
  }

  /** Index the triangles ``tri`` of ``g`` in O(n + m + T): three edge-id
    * probes per triangle ([[edgeIds]]), then two counting sorts of the
    * (edge, third vertex) slots, by third vertex and then stably by edge.
    */
  def apply(g: LocalGraph, tri: Array[Int]): TriangleIndex = {
    val len = tri.length
    val triEdges = edgeIds(g, tri)
    // Slot j = 3t + k pairs triangle t's k-th edge (ab, ac, bc) with the
    // corner off that edge (c, b, a): tri(3t + 2 - k).
    def corner(j: Int): Int = tri(j - j % 3 + 2 - j % 3)
    val byVertex = new Array[Int](g.n + 1)
    var j = 0
    while (j < len) { byVertex(tri(j) + 1) += 1; j += 1 }
    var v = 0
    while (v < g.n) { byVertex(v + 1) += byVertex(v); v += 1 }
    val byCorner = new Array[Int](len)
    j = 0
    while (j < len) {
      val w = corner(j)
      byCorner(byVertex(w)) = j; byVertex(w) += 1
      j += 1
    }
    val off = new Array[Int](g.m + 1)
    j = 0
    while (j < len) { off(triEdges(j) + 1) += 1; j += 1 }
    var e = 0
    while (e < g.m) { off(e + 1) += off(e); e += 1 }
    val next = java.util.Arrays.copyOf(off, g.m)
    val third = new Array[Int](len)
    val ids = new Array[Int](len)
    var i = 0
    while (i < len) {
      val s = byCorner(i)
      val p = next(triEdges(s)); next(triEdges(s)) += 1
      third(p) = corner(s)
      ids(p) = s / 3
      i += 1
    }
    new TriangleIndex(triEdges, off, third, ids)
  }
}
