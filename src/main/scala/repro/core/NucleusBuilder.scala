package repro.core

import org.apache.spark.sql.DataFrame
import repro.cliques.{FourCliques, Triangles}
import repro.graph.{GraphOps, LocalGraph}

/** Bridges the distributed substrate (Spark clique enumeration) and the
  * shared-memory decomposition engines: enumerates edges/triangles/K4s with
  * Spark, collects them, and assembles the generic [[Hypergraph]] for each
  * of the three (r,s) instances the paper evaluates.
  */
object NucleusBuilder {

  /** Length of a flat array of ``count`` rows of ``stride`` ids; throws
    * ``ArithmeticException`` where it would overflow an Int.
    */
  def flatSize(count: Int, stride: Int): Int = Math.multiplyExact(count, stride)

  /** Collected clique structure of one graph.
    *
    * ``tri`` is stride-3 flattened (a,b,c) with a < b < c; ``quad`` is
    * stride-4 flattened (a,b,c,d) with a < b < c < d. Vertex ids are the
    * degree-rank relabelled ids of the input graph.
    */
  final case class Materialized(graph: LocalGraph, tri: Array[Int], quad: Array[Int]) {
    def numTriangles: Int = tri.length / 3
    def numQuads: Int = quad.length / 4
  }

  /** Enumerate and collect everything up to s-cliques of size ``maxS``
    * (2 = edges only, 3 = + triangles, 4 = + four-cliques). The input edge
    * DataFrame is canonicalized and degree-rank relabelled here.
    */
  def materialize(edges: DataFrame, maxS: Int = 4): Materialized = {
    val relabeled = GraphOps.relabelByDegree(GraphOps.canonicalize(edges)).cache()
    try {
      val g = LocalGraph.fromEdges(relabeled)
      if (maxS <= 2) return Materialized(g, Array.emptyIntArray, Array.emptyIntArray)
      val triDf = Triangles.enumerate(relabeled).cache()
      try {
        val triRows = triDf.collect()
        val tri = new Array[Int](flatSize(triRows.length, 3))
        var i = 0
        while (i < triRows.length) {
          val r = triRows(i)
          tri(3 * i) = r.getLong(0).toInt
          tri(3 * i + 1) = r.getLong(1).toInt
          tri(3 * i + 2) = r.getLong(2).toInt
          i += 1
        }
        if (maxS <= 3) return Materialized(g, tri, Array.emptyIntArray)
        val quadRows = FourCliques.enumerate(relabeled, triDf).collect()
        val quad = new Array[Int](flatSize(quadRows.length, 4))
        i = 0
        while (i < quadRows.length) {
          val r = quadRows(i)
          quad(4 * i) = r.getLong(0).toInt
          quad(4 * i + 1) = r.getLong(1).toInt
          quad(4 * i + 2) = r.getLong(2).toInt
          quad(4 * i + 3) = r.getLong(3).toInt
          i += 1
        }
        Materialized(g, tri, quad)
      } finally triDf.unpersist()
    } finally relabeled.unpersist()
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

  /** (3,4): r-cliques are triangles, s-cliques are four-cliques. Each K4's
    * faces come from the [[TriangleIndex]]: one edge-id probe for ab, then
    * binary searches of the triangle lists of ab, ac and bc, the last two
    * edges read from the found triangle abc.
    */
  def nucleus34Hypergraph(m: Materialized): Hypergraph = {
    val g = m.graph
    val ix = TriangleIndex(g, m.tri)
    val nQ = m.numQuads
    val flat = new Array[Int](flatSize(nQ, 4))
    var q = 0
    while (q < nQ) {
      val a = m.quad(4 * q); val b = m.quad(4 * q + 1)
      val c = m.quad(4 * q + 2); val d = m.quad(4 * q + 3)
      val eab = g.edgeId(a, b)
      val abc = ix.find(eab, c)
      flat(4 * q) = abc
      flat(4 * q + 1) = ix.find(eab, d)
      flat(4 * q + 2) = ix.find(ix.triEdges(3 * abc + 1), d)
      flat(4 * q + 3) = ix.find(ix.triEdges(3 * abc + 2), d)
      q += 1
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
