package repro.core

import repro.graph.LocalGraph

/** (3,4)-nucleus incidence that finds each triangle's four-cliques *on the
  * fly*: the K4s of triangle (a,b,c) are the third vertices d common to the
  * triangle lists of its three edges ab, ac and bc, found by merging the
  * three sorted lists (Chiba & Nishizeki's sorted-list intersection). Only
  * triangles are indexed; the K4s are never stored, as in the paper's
  * no-materialization implementation (see [[TrussOnTheFly]] for the
  * rationale). Table 5 times it.
  *
  * The triangle index is built in O(n + m + T): three edge-id probes per
  * triangle ([[NucleusBuilder.edgeIds]]), then two counting sorts of the
  * (edge, third vertex) slots, by third vertex and then stably by edge.
  *
  * @param tri stride-3 flattened triangle list (a < b < c), ids = offsets
  */
final class Nucleus34OnTheFly(g: LocalGraph, tri: Array[Int]) extends Incidence {
  val numTriangles: Int = tri.length / 3

  /** The index: edge ids (ab, ac, bc) of triangle t at 3t, 3t+1, 3t+2;
    * edge e's triangles at [off(e), off(e+1)), each as its third vertex
    * (ascending per edge) and its triangle id.
    */
  private val triEdges = NucleusBuilder.edgeIds(g, tri)
  private val off = new Array[Int](g.m + 1)
  private val third = new Array[Int](tri.length)
  private val ids = new Array[Int](tri.length)

  {
    // Slot j = 3t + k pairs triangle t's k-th edge (ab, ac, bc) with the
    // corner off that edge (c, b, a): tri(3t + 2 - k).
    val corner = Array.tabulate(tri.length)(j => tri(j - j % 3 + 2 - j % 3))
    val byCorner = countingSort(Array.range(0, tri.length), corner, new Array[Int](g.n + 1))
    val byEdge = countingSort(byCorner, triEdges, off)
    var p = 0
    while (p < byEdge.length) { third(p) = corner(byEdge(p)); ids(p) = byEdge(p) / 3; p += 1 }
  }

  /** ``slots`` stably sorted by ``key(slot)``, whose values lie below
    * ``start.length - 1``; the zeroed ``start`` receives each key's offset.
    */
  private def countingSort(slots: Array[Int], key: Array[Int], start: Array[Int]): Array[Int] = {
    var i = 0
    while (i < slots.length) { start(key(slots(i)) + 1) += 1; i += 1 }
    var k = 1
    while (k < start.length) { start(k) += start(k - 1); k += 1 }
    val next = start.clone()
    val sorted = new Array[Int](slots.length)
    i = 0
    while (i < slots.length) { val s = slots(i); sorted(next(key(s))) = s; next(key(s)) += 1; i += 1 }
    sorted
  }

  /** Most triangles on any one edge; bounds every triangle's K4 count. */
  private val maxPerEdge: Int = (0 until g.m).foldLeft(0)((mx, e) => math.max(mx, off(e + 1) - off(e)))

  def numR: Int = numTriangles
  def others: Int = 3

  /** The K4s of triangle ``t`` as the ids of their three other faces (abd,
    * acd, bcd), ascending in d: a three-way merge of the triangle lists of
    * edges ab, ac and bc, with no hash probe.
    */
  def gather(t: Int, buf: Array[Int]): Int = {
    val off = this.off; val third = this.third; val ids = this.ids
    val eab = triEdges(3 * t); val eac = triEdges(3 * t + 1); val ebc = triEdges(3 * t + 2)
    var i = off(eab); val iEnd = off(eab + 1)
    var j = off(eac); val jEnd = off(eac + 1)
    var k = off(ebc); val kEnd = off(ebc + 1)
    var len = 0
    while (i < iEnd && j < jEnd && k < kEnd) {
      val x = third(i); val y = third(j); val z = third(k)
      if (x == y && y == z) {
        buf(len) = ids(i); buf(len + 1) = ids(j); buf(len + 2) = ids(k)
        len += 3
        i += 1; j += 1; k += 1
      } else {
        val d = math.max(x, math.max(y, z))
        if (x < d) i += 1
        if (y < d) j += 1
        if (z < d) k += 1
      }
    }
    len / 3
  }

  /** Parallel per-triangle K4 counts; a triangle lies in fewer K4s than
    * any of its edges has triangles.
    */
  def degreeCounts(threads: Int): Array[Int] = countByGather(threads, maxPerEdge)

  def fourCliqueCounts(threads: Int): Array[Int] = degreeCounts(threads)

  def peel(threads: Int): Array[Int] = Peeling.decompose(this, threads)

  def and(threads: Int, notify: Boolean = true): IterResult = And.decompose(this, threads, notify)
}
