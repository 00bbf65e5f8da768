package repro.core

import repro.graph.LocalGraph

/** k-truss (r=2, s=3) incidence that finds each edge's triangles *on the
  * fly* by neighbourhood intersection, exactly as the paper's implementation
  * does (§5: "We do not store the s-cliques during the computation ... we
  * find the participations of the r-cliques in the s-cliques on-the-fly").
  *
  * This is the variant Table 5 times: the triangle-count initialization is
  * parallel for both algorithms (the paper parallelizes it for peeling too,
  * "for a fair comparison"), then peeling's peel loop is sequential while
  * AND's h-index passes are parallel.
  */
final class TrussOnTheFly(g: LocalGraph) extends Incidence {
  def numR: Int = g.m
  def others: Int = 2

  /** The triangles of edge ``e`` as the ids of their two other edges.
    * Scans the smaller-degree endpoint's adjacency; O(min deg) edge-index
    * probes per call — the on-the-fly cost the paper's runtimes reflect.
    */
  def gather(e: Int, buf: Array[Int]): Int = {
    val (u, v) = g.edges(e)
    val x = if (g.degree(u) <= g.degree(v)) u else v
    val y = if (x == u) v else u
    var len = 0
    var i = g.adjOff(x)
    while (i < g.adjOff(x + 1)) {
      val w = g.adjVtx(i)
      if (w != y) {
        val eyw = g.edgeId(y, w)
        if (eyw >= 0) { buf(len) = g.adjEid(i); buf(len + 1) = eyw; len += 2 }
      }
      i += 1
    }
    len / 2
  }

  /** Parallel per-edge triangle counts; an edge lies in fewer triangles
    * than its endpoints have neighbours.
    */
  def degreeCounts(threads: Int): Array[Int] = countByGather(threads, g.maxDegree)

  def triangleCounts(threads: Int): Array[Int] = degreeCounts(threads)

  def peel(threads: Int): Array[Int] = Peeling.decompose(this, threads)

  def and(threads: Int, notify: Boolean = true): IterResult = And.decompose(this, threads, notify)
}
