package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

/** Parallel engines on fixtures large enough to run in parallel for real.
  *
  * ``ParallelFor`` runs inline when n ≤ its chunk (100), so the small
  * fixtures of the other suites never exercise a race. Here every
  * decomposition has 1500 or more r-cliques, and the notifying parallel
  * AND, over the materialized and the on-the-fly incidences, must return
  * exactly the peeling κ on every one of many runs.
  */
class ParallelStressSpec extends AnyFunSuite {

  private val reps = 20
  private val threadCounts = Seq(2, 4, 8)

  private lazy val m = TestGraphs.materialize(TestGraphs.powerLaw(1500, 20000, 0.45, 30, 12, seed = 5))

  /** (label, incidence, peeling κ of the materialized hypergraph). */
  private lazy val cases: Seq[(String, Incidence, Array[Int])] = {
    val hs = Seq((1, 2), (2, 3), (3, 4)).map { case (r, s) => (r, s) -> NucleusBuilder.hypergraph(m, r, s) }
    hs.map { case ((r, s), h) => (s"($r,$s) materialized", h: Incidence, Peeling.decompose(h)) } ++
      Seq(("(2,3) on the fly", new TrussOnTheFly(m.graph): Incidence, Peeling.decompose(hs(1)._2)),
          ("(3,4) on the fly", new Nucleus34OnTheFly(m.graph, m.tri): Incidence, Peeling.decompose(hs(2)._2)))
  }

  test("fixtures have at least 1500 r-cliques in every decomposition") {
    for ((label, inc, _) <- cases) assert(inc.numR >= 1500, s"$label: ${inc.numR} r-cliques")
  }

  test("parallel AND with notification equals peeling on every run") {
    for ((label, inc, kappa) <- cases; t <- threadCounts; rep <- 1 to reps) {
      val got = And.decompose(inc, threads = t, notify = true).kappa
      val wrong = got.indices.count(i => got(i) != kappa(i))
      assert(wrong == 0, s"$label, $t threads, run $rep: $wrong of ${kappa.length} κ wrong")
    }
  }

  test("parallel AND without notification equals peeling") {
    for ((label, inc, kappa) <- cases; t <- threadCounts)
      assert(And.decompose(inc, threads = t, notify = false).kappa.sameElements(kappa), s"$label, $t threads")
  }

  test("parallel SND and the parallel d_s count of peeling equal peeling") {
    for ((label, inc, kappa) <- cases; t <- threadCounts) {
      assert(Snd.decompose(inc, threads = t).kappa.sameElements(kappa), s"$label SND, $t threads")
      assert(Peeling.decompose(inc, threads = t).sameElements(kappa), s"$label peel, $t threads")
    }
  }
}
