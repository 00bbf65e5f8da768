package repro.core

import repro.graph.LocalGraph

/** (3,4)-nucleus incidence that finds each triangle's four-cliques *on the
  * fly*: the K4s of triangle (a,b,c) are the third vertices d common to the
  * triangle lists of its three edges ab, ac and bc in a [[TriangleIndex]],
  * found by merging the three sorted lists (Chiba & Nishizeki's
  * sorted-list intersection). Only triangles are indexed; the K4s are never
  * stored, as in the paper's no-materialization implementation (see
  * [[TrussOnTheFly]] for the rationale). Table 5 times it.
  *
  * @param tri stride-3 flattened triangle list (a < b < c), ids = offsets
  */
final class Nucleus34OnTheFly(g: LocalGraph, tri: Array[Int]) extends Incidence {
  val numTriangles: Int = tri.length / 3
  private val ix = TriangleIndex(g, tri)

  def numR: Int = numTriangles
  def others: Int = 3

  /** The K4s of triangle ``t`` as the ids of their three other faces (abd,
    * acd, bcd), ascending in d: a three-way merge of the triangle lists of
    * edges ab, ac and bc, with no hash probe.
    */
  def gather(t: Int, buf: Array[Int]): Int = {
    val off = ix.off; val third = ix.third; val ids = ix.ids
    val eab = ix.triEdges(3 * t); val eac = ix.triEdges(3 * t + 1); val ebc = ix.triEdges(3 * t + 2)
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
  def degreeCounts(threads: Int): Array[Int] = countByGather(threads, ix.maxPerEdge)

  def fourCliqueCounts(threads: Int): Array[Int] = degreeCounts(threads)

  def peel(threads: Int): Array[Int] = Peeling.decompose(this, threads)

  def and(threads: Int, notify: Boolean = true): IterResult = And.decompose(this, threads, notify)
}
