package repro.graph

import org.apache.spark.sql.DataFrame

/** Compact driver-side adjacency for the shared-memory decomposition
  * engines (the paper's algorithms are shared-memory OpenMP; the Spark
  * layer supplies the canonical edges, this structure supplies the arrays).
  *
  * Vertices are 0..n-1; ``edges(e) = (u, v)`` with ``u < v``; ``adjOff`` /
  * ``adjVtx`` is a CSR over undirected neighbours, ascending per vertex;
  * ``adjEid`` is the parallel CSR holding
  * the edge id of each adjacency slot, so edge-centric algorithms (k-truss)
  * can map a neighbour back to its edge. [[edgeId]] goes through one hashed
  * edge index, shared by the hypergraph builds, the triangle index and the
  * on-the-fly truss incidence.
  */
final class LocalGraph(
    val n: Int,
    val edges: Array[(Int, Int)],
    val adjOff: Array[Int],
    val adjVtx: Array[Int],
    val adjEid: Array[Int],
) {
  def m: Int = edges.length

  /** Degree of vertex ``v``. */
  def degree(v: Int): Int = adjOff(v + 1) - adjOff(v)

  /** Largest vertex degree (0 for an empty graph). */
  lazy val maxDegree: Int = (0 until n).foldLeft(0)((d, v) => math.max(d, degree(v)))

  /** Edge ids keyed by u·n + v (u < v); built on first use and shared by
    * every engine over this graph.
    */
  private lazy val edgeIndex = {
    val ix = new LongIndex(m)
    var e = 0
    while (e < m) { ix(edges(e)._1.toLong * n + edges(e)._2) = e; e += 1 }
    ix
  }

  /** Edge id of (u, v) if present (endpoints in any order), else -1. */
  def edgeId(u: Int, v: Int): Int =
    edgeIndex(if (u < v) u.toLong * n + v else v.toLong * n + u)
}

object LocalGraph {

  /** Build from a canonical edge DataFrame (columns ``u``, ``v``; u < v).
    * Vertex ids must already be dense 0..n-1 (use
    * [[GraphOps.relabelByDegree]] first); an id past the Int range throws
    * ``ArithmeticException``. Edge ids are assigned in sorted (u, v) order
    * so they are deterministic for a given graph.
    */
  def fromEdges(edges: DataFrame): LocalGraph = {
    val pairs = edges.collect().map(r => (Math.toIntExact(r.getLong(0)), Math.toIntExact(r.getLong(1))))
    fromPairs(pairs)
  }

  /** Build from canonical (u < v) edge pairs with dense vertex ids. */
  def fromPairs(pairs: Array[(Int, Int)]): LocalGraph = {
    val es = pairs.sorted
    val n = if (es.isEmpty) 0 else es.iterator.map(e => math.max(e._1, e._2)).max + 1
    val deg = new Array[Int](n + 1)
    es.foreach { case (u, v) => deg(u + 1) += 1; deg(v + 1) += 1 }
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i + 1); i += 1 }
    val cur = off.clone()
    val vtx = new Array[Int](2 * es.length)
    val eid = new Array[Int](2 * es.length)
    var e = 0
    while (e < es.length) {
      val (u, v) = es(e)
      require(u < v, s"edge not canonical: ($u,$v)")
      vtx(cur(u)) = v; eid(cur(u)) = e; cur(u) += 1
      vtx(cur(v)) = u; eid(cur(v)) = e; cur(v) += 1
      e += 1
    }
    new LocalGraph(n, es, off, vtx, eid)
  }
}
