package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.{GraphOps, LocalGraph}

/** Bridges the distributed substrate and the shared-memory decomposition
  * engines: Spark canonicalizes the edges, the driver collects them once
  * into a [[LocalGraph]] numbered by (degree, id) rank, and every clique is
  * then listed by the gather an engine already runs (the paper's §5:
  * s-cliques are found inside the engine). Assembles the generic
  * [[Hypergraph]] for each of the three (r,s) instances the paper
  * evaluates.
  */
object NucleusBuilder {

  /** Workers of the listings' d_s counts and of ``numQuads``. */
  private val threads = Runtime.getRuntime.availableProcessors()

  /** Length of a flat array of ``count`` rows of ``stride`` ids; throws
    * ``ArithmeticException`` where it would overflow an Int.
    */
  def flatSize(count: Int, stride: Int): Int = Math.multiplyExact(count, stride)

  /** Number of s-cliques whose members have the S-degrees ``degrees``:
    * each s-clique is counted once per member, ``arity`` times in all.
    * Throws ``ArithmeticException`` past Int.MaxValue.
    */
  def sCliqueCount(degrees: Array[Int], arity: Int): Int =
    Math.toIntExact(degrees.foldLeft(0L)(_ + _) / arity)

  /** Collected clique structure of one graph.
    *
    * ``tri`` is stride-3 flattened (a,b,c) with a < b < c, in any order.
    * Vertex ids are the degree-rank relabelled ids of the input graph.
    * ``quad`` is neither filled nor read here; it is kept for callers that
    * build a ``Materialized`` from their own K4 list.
    */
  final case class Materialized(graph: LocalGraph, tri: Array[Int], quad: Array[Int] = Array.emptyIntArray) {
    def numTriangles: Int = tri.length / 3

    /** Number of K4s, counted by the (3,4) on-the-fly merge. */
    lazy val numQuads: Int = sCliqueCount(new Nucleus34OnTheFly(graph, tri).degreeCounts(threads), 4)
  }

  /** Canonicalize the input edge DataFrame in Spark, collect it into a
    * [[LocalGraph]] (which numbers the vertices by (degree, id) rank), and
    * list the triangles if ``maxS`` ≥ 3 (2 = edges only). K4s are never
    * listed here: the (3,4) builds find them.
    */
  def materialize(edges: DataFrame, maxS: Int = 4): Materialized = {
    val g = LocalGraph.fromEdges(GraphOps.canonicalize(edges))
    Materialized(g, if (maxS <= 2) Array.emptyIntArray else triangles(g))
  }

  /** The triangles of ``g`` as a stride-3 list (a, b, c), a < b < c, in
    * ascending order: the [[TrussOnTheFly]] incidence written down by
    * [[sCliques]], rewritten from edge ids to vertices. Edge ids follow
    * sorted (u, v), so a triangle's least edge is (a, b).
    */
  def triangles(g: LocalGraph): Array[Int] = {
    val tri = sCliques(new TrussOnTheFly(g))
    var j = 0
    while (j < tri.length) {
      val (a, b) = g.edges(tri(j))
      // tri(j + 1) joins a or b to the third vertex.
      val (x, y) = g.edges(tri(j + 1))
      tri(j) = a; tri(j + 1) = b; tri(j + 2) = if (x == a || x == b) y else x
      j += 3
    }
    tri
  }

  /** The incidence ``inc`` written down: every s-clique once, at its least
    * member r, as r followed by its other members in gather order
    * (``inc.others + 1`` ids each, ascending in r). Sized by the parallel
    * d_s count, then filled in one walk of [[Incidence.gather]]; throws
    * ``ArithmeticException`` past Int.MaxValue.
    */
  def sCliques(inc: Incidence): Array[Int] = {
    val others = inc.others
    val deg = inc.degreeCounts(threads)
    val flat = new Array[Int](flatSize(sCliqueCount(deg, others + 1), others + 1))
    val buf = new Array[Int](Math.multiplyExact(deg.foldLeft(0)(math.max), others))
    var p = 0
    var r = 0
    while (r < inc.numR) {
      val end = others * inc.gather(r, buf)
      var k = 0
      while (k < end) {
        var i = 0
        while (i < others && buf(k + i) > r) i += 1
        if (i == others) { flat(p) = r; System.arraycopy(buf, k, flat, p + 1, others); p += others + 1 }
        k += others
      }
      r += 1
    }
    flat
  }

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

  /** (1,2): r-cliques are vertices, s-cliques are edges. */
  def coreHypergraph(m: Materialized): Hypergraph = {
    val g = m.graph
    val flat = new Array[Int](flatSize(g.m, 2))
    var e = 0
    while (e < g.m) {
      flat(2 * e) = g.edges(e)._1
      flat(2 * e + 1) = g.edges(e)._2
      e += 1
    }
    new Hypergraph(g.n, 2, flat)
  }

  /** (2,3): r-cliques are edges, s-cliques are triangles, whose members
    * are their edge ids (ab, ac, bc) from [[edgeIds]], so s-clique t is
    * triangle t.
    */
  def trussHypergraph(m: Materialized): Hypergraph =
    new Hypergraph(m.graph.m, 3, edgeIds(m.graph, m.tri))

  /** (3,4): r-cliques are triangles, s-cliques are four-cliques: the
    * on-the-fly (3,4) incidence written down by [[sCliques]], each K4 at
    * its least face id.
    */
  def nucleus34Hypergraph(m: Materialized): Hypergraph =
    new Hypergraph(m.numTriangles, 4, sCliques(new Nucleus34OnTheFly(m.graph, m.tri)))

  /** Dispatch on the (r, s) pair the paper evaluates. */
  def hypergraph(m: Materialized, r: Int, s: Int): Hypergraph = (r, s) match {
    case (1, 2) => coreHypergraph(m)
    case (2, 3) => trussHypergraph(m)
    case (3, 4) => nucleus34Hypergraph(m)
    case _      => sys.error(s"unsupported (r,s) = ($r,$s); supported: (1,2) (2,3) (3,4)")
  }

  /** The incidence the runtime experiments use (the paper's §5 setup):
    * s-cliques found on the fly for (2,3) and (3,4); for (1,2) the graph
    * itself is the structure, so the materialized hypergraph.
    */
  def onTheFly(m: Materialized, r: Int, s: Int): Incidence = (r, s) match {
    case (2, 3) => new TrussOnTheFly(m.graph)
    case (3, 4) => new Nucleus34OnTheFly(m.graph, m.tri)
    case _      => hypergraph(m, r, s)
  }
}
