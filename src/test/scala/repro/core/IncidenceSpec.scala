package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

class IncidenceSpec extends AnyFunSuite {

  /** The s-cliques ``inc`` gathers for every r-clique, each as its sorted
    * other members.
    */
  private def gathered(inc: Incidence): Seq[Seq[Seq[Int]]] = {
    val deg = inc.degreeCounts(1)
    val buf = new Array[Int](deg.maxOption.getOrElse(0) * inc.others)
    (0 until inc.numR).map { r =>
      val n = inc.gather(r, buf)
      assert(n == deg(r), s"r-clique $r: gathered $n, counted ${deg(r)}")
      buf.take(n * inc.others).toSeq.grouped(inc.others).map(_.sorted).toSeq.sortBy(_.mkString(","))
    }
  }

  /** ``m`` with its triangles in a seeded random order, as a Spark collect
    * may return them (the local materialization lists them sorted).
    */
  private def shuffled(m: NucleusBuilder.Materialized, seed: Long): NucleusBuilder.Materialized = {
    val order = new scala.util.Random(seed).shuffle((0 until m.numTriangles).toVector)
    m.copy(tri = order.flatMap(t => m.tri.slice(3 * t, 3 * t + 3)).toArray)
  }

  test("on-the-fly incidences gather exactly the hypergraph's s-cliques") {
    // The power-law fixture's planted cliques put edges in up to 10
    // triangles next to edges in 1: the (3,4) merge meets lists of unequal
    // length.
    val fixtures = (1 to 6).map(seed => s"random seed=$seed" -> TestGraphs.randomGraph(16, 0.5, seed)) :+
      ("power law" -> TestGraphs.powerLaw(1500, 20000, 0.45, 30, 12, seed = 5))
    for ((label, pairs) <- fixtures) {
      val sorted = TestGraphs.materialize(pairs)
      for ((m, order) <- Seq((sorted, "sorted"), (shuffled(sorted, 7), "shuffled"))) {
        assert(gathered(new TrussOnTheFly(m.graph)) == gathered(NucleusBuilder.trussHypergraph(m)), s"$label, $order")
        assert(gathered(new Nucleus34OnTheFly(m.graph, m.tri)) == gathered(NucleusBuilder.nucleus34Hypergraph(m)),
               s"$label, $order")
      }
    }
  }

  test("triangle index finds every triangle and nothing else") {
    // K4 on {0,1,2,3}, a pendant triangle {3,4,5}, the wedge 5-6-7 and the
    // bare edge (8,9).
    val pairs = TestGraphs.complete(4) ++ Array((3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (8, 9))
    val m = shuffled(TestGraphs.materialize(pairs), 3)
    val ix = TriangleIndex(m.graph, m.tri)
    def of(x: Int, y: Int, z: Int) = ix.find(m.graph.edgeId(x, y), z)
    for (t <- 0 until m.numTriangles) {
      val (a, b, c) = (m.tri(3 * t), m.tri(3 * t + 1), m.tri(3 * t + 2))
      for (Seq(x, y, z) <- Seq(a, b, c).permutations) assert(of(x, y, z) == t, s"($x,$y,$z)")
    }
    assert(of(5, 6, 7) == -1 && of(6, 7, 5) == -1, "wedge 5-6-7")
    assert(of(8, 9, 0) == -1 && of(5, 6, 4) == -1, "edge in no triangle")
    assert(of(0, 1, 4) == -1, "third vertex adjacent to neither end")
  }

  test("both (3,4) paths return kappa on a K5 whose ids pass 2^21") {
    val vs = Array(0, 7, 1 << 21, (1 << 21) + 3, (1 << 22) + 1)
    val m = TestGraphs.materialize(for (i <- vs.indices.toArray; j <- i + 1 until vs.length) yield (vs(i), vs(j)))
    assert(m.graph.n > (1 << 22) && m.numTriangles == 10 && m.numQuads == 5)
    val otf = new Nucleus34OnTheFly(m.graph, m.tri)
    val h = NucleusBuilder.nucleus34Hypergraph(m)
    for ((label, kappa) <- Seq("on the fly peel" -> otf.peel(1), "on the fly AND" -> otf.and(1).kappa,
                               "hypergraph peel" -> Peeling.decompose(h), "hypergraph AND" -> And.decompose(h).kappa))
      assert(kappa.toSeq == Seq.fill(10)(2), label)
  }
}
