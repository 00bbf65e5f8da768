package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

class DegreeLevelsSpec extends AnyFunSuite {

  private val rsAll = Seq((1, 2), (2, 3), (3, 4))

  test("empty hypergraph has zero levels") {
    assert(DegreeLevels.count(Hypergraph.fromSeqs(0, 2, Seq.empty)) == 0)
  }

  test("complete graph collapses to a single level for every (r,s)") {
    for (n <- 4 to 7; (r, s) <- rsAll) {
      assert(DegreeLevels.count(TestGraphs.hypergraph(TestGraphs.complete(n), r, s)) == 1,
             s"K$n (r,s)=($r,$s)")
    }
  }

  test("star graph has two levels") {
    // Leaves have degree 1, centre degree 9; removing all degree-1 leaves
    // kills every edge, dropping the centre to 0 — two levels total.
    val pairs = (1 to 9).map(i => (0, i)).toArray
    assert(DegreeLevels.count(TestGraphs.hypergraph(pairs, 1, 2)) == 2)
  }

  test("path graph P4 has two levels") {
    // Degrees 1,2,2,1: ends are level 0; removing them leaves one edge with
    // both endpoints at degree 1 — level 1.
    val pairs = Array((0, 1), (1, 2), (2, 3))
    assert(DegreeLevels.count(TestGraphs.hypergraph(pairs, 1, 2)) == 2)
  }

  test("levels partition all r-cliques") {
    for (seed <- 1 to 6; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      val lv = DegreeLevels.levels(h)
      assert(lv.length == h.numR)
      if (h.numR > 0) {
        val mx = lv.max
        assert((0 to mx).forall(l => lv.contains(l)), "no empty level")
      }
    }
  }

  test("Theorem 2: kappa is non-decreasing across levels") {
    for (seed <- 1 to 10; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      val lv = DegreeLevels.levels(h)
      val kappa = Peeling.decompose(h)
      if (h.numR > 0) {
        val kappaPerLevel = lv.indices.groupBy(lv(_)).view.mapValues(_.map(kappa(_)))
        for (i <- 0 until lv.max) {
          val aboveMin = (i + 1 to lv.max).flatMap(kappaPerLevel(_)).min
          assert(kappaPerLevel(i).max <= aboveMin, s"level $i seed=$seed (r,s)=($r,$s)")
        }
      }
    }
  }

  test("Lemma 2 / Theorem 3: SND iterations are bounded by the number of levels") {
    for (seed <- 1 to 10; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      val levels = DegreeLevels.count(h)
      val snd = Snd.decompose(h)
      // tau_l = kappa for l = max level index = levels - 1.
      assert(snd.iterations <= math.max(0, levels - 1),
             s"(r,s)=($r,$s) seed=$seed: ${snd.iterations} iters vs $levels levels")
    }
  }

  test("AND iterations also respect the bound") {
    for (seed <- 1 to 10; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      assert(And.decompose(h).iterations <= math.max(0, DegreeLevels.count(h) - 1))
    }
  }

  test("level 0 holds exactly the minimum-degree r-cliques") {
    for (seed <- 1 to 6) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), 1, 2)
      if (h.numR > 0) {
        val lv = DegreeLevels.levels(h)
        val minDeg = h.degrees.min
        for (r <- 0 until h.numR)
          assert((lv(r) == 0 && h.degree(r) == minDeg) || (lv(r) > 0 && h.degree(r) >= minDeg))
        assert((0 until h.numR).filter(lv(_) == 0).forall(h.degree(_) == minDeg))
      }
    }
  }

  test("on-the-fly incidences give the same levels as the hypergraph") {
    for (seed <- 1 to 6) {
      val m = TestGraphs.materialize(TestGraphs.randomGraph(16, 0.5, seed))
      assert(DegreeLevels.levels(new TrussOnTheFly(m.graph)).sameElements(
               DegreeLevels.levels(NucleusBuilder.trussHypergraph(m))), s"(2,3) seed=$seed")
      assert(DegreeLevels.levels(new Nucleus34OnTheFly(m.graph, m.tri)).sameElements(
               DegreeLevels.levels(NucleusBuilder.nucleus34Hypergraph(m))), s"(3,4) seed=$seed")
    }
  }
}
