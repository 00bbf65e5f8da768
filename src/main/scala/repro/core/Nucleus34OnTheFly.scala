package repro.core

import repro.graph.LocalGraph

/** (3,4)-nucleus incidence that finds each triangle's four-cliques *on the
  * fly*: the K4s of triangle (a,b,c) are the common neighbours d of all
  * three vertices, and the three other faces are resolved through a
  * [[TriangleIndex]]. Mirrors the paper's no-materialization implementation
  * (see [[TrussOnTheFly]] for the rationale); Table 5 times it.
  *
  * @param tri stride-3 flattened triangle list (a < b < c), ids = offsets
  */
final class Nucleus34OnTheFly(g: LocalGraph, tri: Array[Int]) extends Incidence {
  val numTriangles: Int = tri.length / 3
  private val tid = new TriangleIndex(g.n, tri)

  def numR: Int = numTriangles
  def others: Int = 3

  /** The K4s of triangle ``t`` as the ids of their three other faces.
    * Scans the smallest-degree corner's adjacency with two edge probes per
    * candidate — the on-the-fly cost.
    */
  def gather(t: Int, buf: Array[Int]): Int = {
    val a = tri(3 * t); val b = tri(3 * t + 1); val c = tri(3 * t + 2)
    var x = a; var y = b; var z = c
    if (g.degree(y) < g.degree(x)) { val s = x; x = y; y = s }
    if (g.degree(z) < g.degree(x)) { val s = x; x = z; z = s }
    var len = 0
    var i = g.adjOff(x)
    while (i < g.adjOff(x + 1)) {
      val d = g.adjVtx(i)
      if (d != y && d != z && g.hasEdge(y, d) && g.hasEdge(z, d)) {
        buf(len) = tid.of(a, b, d); buf(len + 1) = tid.of(a, c, d); buf(len + 2) = tid.of(b, c, d)
        len += 3
      }
      i += 1
    }
    len / 3
  }

  /** Parallel per-triangle K4 counts; a triangle lies in fewer K4s than
    * its corners have neighbours.
    */
  def degreeCounts(threads: Int): Array[Int] = countByGather(threads, g.maxDegree)

  def fourCliqueCounts(threads: Int): Array[Int] = degreeCounts(threads)

  def peel(threads: Int): Array[Int] = Peeling.decompose(this, threads)

  def and(threads: Int, notify: Boolean = true): IterResult = And.decompose(this, threads, notify)
}
