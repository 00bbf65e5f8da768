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

  /** Build from a canonical edge DataFrame (columns ``u``, ``v``; u < v, no
    * duplicates), collected once. Ids may be any Long: the vertices are
    * numbered 0..n-1 in non-decreasing (degree, id) order, so every edge
    * points from its lower- to its higher-degree endpoint (the orientation
    * that keeps each vertex's higher neighbours few on skewed graphs), and a
    * graph already numbered this way keeps its ids. Edge ids are assigned in
    * sorted (u, v) order of the new ids, so they are deterministic for a
    * given graph.
    */
  def fromEdges(edges: DataFrame): LocalGraph = {
    val rows = edges.collect()
    fromPairs(rankByDegree(rows.map(_.getLong(0)), rows.map(_.getLong(1))))
  }

  /** The edges ``(us(e), vs(e))``, u < v, with their endpoints numbered
    * 0..n-1 in non-decreasing (degree, id) order, each as (lower, higher).
    * One sort of all endpoints gives the distinct ids and their degrees, a
    * stable counting sort by degree ranks them, and a binary search finds
    * each endpoint's rank.
    */
  private def rankByDegree(us: Array[Long], vs: Array[Long]): Array[(Int, Int)] = {
    val ends = us ++ vs
    java.util.Arrays.sort(ends)
    // Distinct ids ascending, each with its degree (the length of its run).
    val ids = new Array[Long](ends.length)
    val deg = new Array[Int](ends.length)
    var n = 0
    for (x <- ends) {
      if (n == 0 || ids(n - 1) != x) { ids(n) = x; n += 1 }
      deg(n - 1) += 1
    }
    // Stable counting sort by degree over ascending ids: ties keep id order.
    val next = new Array[Int](deg.foldLeft(0)(math.max) + 2)
    for (i <- 0 until n) next(deg(i) + 1) += 1
    for (d <- 1 until next.length) next(d) += next(d - 1)
    val rank = new Array[Int](n)
    for (i <- 0 until n) { rank(i) = next(deg(i)); next(deg(i)) += 1 }
    def rankOf(id: Long): Int = rank(java.util.Arrays.binarySearch(ids, 0, n, id))
    Array.tabulate(us.length) { e =>
      require(us(e) < vs(e), s"edge not canonical: (${us(e)},${vs(e)})")
      val (a, b) = (rankOf(us(e)), rankOf(vs(e)))
      if (a < b) (a, b) else (b, a)
    }
  }

  /** Build from canonical (u < v), distinct edge pairs with dense vertex
    * ids; a non-canonical or repeated edge or a negative id throws
    * ``IllegalArgumentException``.
    */
  def fromPairs(pairs: Array[(Int, Int)]): LocalGraph = {
    val es = pairs.sorted
    // Sorted and canonical (checked before any id indexes), so es(0)._1 is the least id.
    require(es.isEmpty || es(0)._1 >= 0, s"negative vertex id: ${es(0)._1}")
    val n = if (es.isEmpty) 0 else es.iterator.map(e => math.max(e._1, e._2)).max + 1
    val deg = new Array[Int](n + 1)
    es.foreach { case (u, v) => require(u < v, s"edge not canonical: ($u,$v)"); deg(u + 1) += 1; deg(v + 1) += 1 }
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i + 1); i += 1 }
    val cur = off.clone()
    val vtx = new Array[Int](2 * es.length)
    val eid = new Array[Int](2 * es.length)
    var e = 0
    while (e < es.length) {
      val (u, v) = es(e)
      require(e == 0 || es(e - 1) != es(e), s"repeated edge: ($u,$v)")
      vtx(cur(u)) = v; eid(cur(u)) = e; cur(u) += 1
      vtx(cur(v)) = u; eid(cur(v)) = e; cur(v) += 1
      e += 1
    }
    new LocalGraph(n, es, off, vtx, eid)
  }
}
