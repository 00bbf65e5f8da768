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

  test("on-the-fly incidences gather exactly the hypergraph's s-cliques") {
    // The power-law fixture's planted cliques put edges in up to 10
    // triangles next to edges in 1: the (3,4) merge meets lists of unequal
    // length.
    val fixtures = (1 to 6).map(seed => s"random seed=$seed" -> TestGraphs.randomGraph(16, 0.5, seed)) :+
      ("power law" -> TestGraphs.powerLaw(1500, 20000, 0.45, 30, 12, seed = 5))
    for ((label, pairs) <- fixtures) {
      val sorted = TestGraphs.materialize(pairs)
      for ((m, order) <- Seq((sorted, "sorted"), (TestGraphs.shuffled(sorted, 7), "shuffled"))) {
        assert(gathered(new TrussOnTheFly(m.graph)) == gathered(NucleusBuilder.trussHypergraph(m)), s"$label, $order")
        assert(gathered(new Nucleus34OnTheFly(m.graph, m.tri)) == gathered(TestGraphs.nucleus34ByBruteForce(m)),
               s"$label, $order")
      }
    }
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
