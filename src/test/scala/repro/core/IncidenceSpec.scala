package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph
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
    for (seed <- 1 to 6) {
      val m = TestGraphs.materialize(TestGraphs.randomGraph(16, 0.5, seed))
      assert(gathered(new TrussOnTheFly(m.graph)) == gathered(NucleusBuilder.trussHypergraph(m)), s"seed=$seed")
      assert(gathered(new Nucleus34OnTheFly(m.graph, m.tri)) == gathered(NucleusBuilder.nucleus34Hypergraph(m)),
             s"seed=$seed")
    }
  }

  test("triangle keys stay distinct at the largest vertex count") {
    val n = TriangleIndex.MaxVertices
    val idx = new TriangleIndex(n, Array(n - 3, n - 2, n - 1, n - 4, n - 2, n - 1, 0, 1, n - 1))
    assert(idx(n - 3, n - 2, n - 1) == 0 && idx(n - 4, n - 2, n - 1) == 1 && idx(0, 1, n - 1) == 2)
  }

  test("triangle index fails loudly above the key limit, in both (3,4) paths") {
    intercept[IllegalArgumentException](new TriangleIndex(TriangleIndex.MaxVertices + 1, Array.emptyIntArray))
    val g = LocalGraph.fromPairs(Array((0, TriangleIndex.MaxVertices)))
    assert(g.n == TriangleIndex.MaxVertices + 1)
    intercept[IllegalArgumentException](new Nucleus34OnTheFly(g, Array.emptyIntArray))
    intercept[IllegalArgumentException](
      NucleusBuilder.nucleus34Hypergraph(NucleusBuilder.Materialized(g, Array.emptyIntArray, Array.emptyIntArray)))
  }
}
