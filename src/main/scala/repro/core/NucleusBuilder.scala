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
    lazy val numQuads: Int = sCliqueCount(new Nucleus34OnTheFly(graph, tri).degreeCounts(1), 4)
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
    * ascending order: [[TrussOnTheFly.gather]] over every edge, each
    * triangle kept once, at its lowest edge (a, b).
    */
  def triangles(g: LocalGraph): Array[Int] = {
    val inc = new TrussOnTheFly(g)
    val tri = new Array[Int](flatSize(sCliqueCount(inc.degreeCounts(1), 3), 3))
    val buf = new Array[Int](2 * g.maxDegree)
    var p = 0
    var e = 0
    while (e < g.m) {
      val (a, b) = g.edges(e)
      val n = inc.gather(e, buf)
      var k = 0
      while (k < n) {
        // buf(2k) joins a or b to the third vertex.
        val (x, y) = g.edges(buf(2 * k))
        val c = if (x == a || x == b) y else x
        if (c > b) { tri(p) = a; tri(p + 1) = b; tri(p + 2) = c; p += 3 }
        k += 1
      }
      e += 1
    }
    tri
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
    * are their edge ids (ab, ac, bc) from [[TriangleIndex.edgeIds]].
    */
  def trussHypergraph(m: Materialized): Hypergraph =
    new Hypergraph(m.graph.m, 3, TriangleIndex.edgeIds(m.graph, m.tri))

  /** (3,4): r-cliques are triangles, s-cliques are four-cliques: the
    * on-the-fly (3,4) incidence written down. [[Nucleus34OnTheFly.gather]]
    * over every triangle, each K4 kept once, at its least face id.
    */
  def nucleus34Hypergraph(m: Materialized): Hypergraph = {
    val inc = new Nucleus34OnTheFly(m.graph, m.tri)
    val deg = inc.degreeCounts(1)
    val flat = new Array[Int](flatSize(sCliqueCount(deg, 4), 4))
    val buf = new Array[Int](Math.multiplyExact(deg.foldLeft(0)(math.max), 3))
    var p = 0
    var t = 0
    while (t < inc.numR) {
      val end = 3 * inc.gather(t, buf)
      var k = 0
      while (k < end) {
        val f1 = buf(k); val f2 = buf(k + 1); val f3 = buf(k + 2)
        if (t < f1 && t < f2 && t < f3) { flat(p) = t; flat(p + 1) = f1; flat(p + 2) = f2; flat(p + 3) = f3; p += 4 }
        k += 3
      }
      t += 1
    }
    new Hypergraph(m.numTriangles, 4, flat)
  }

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
