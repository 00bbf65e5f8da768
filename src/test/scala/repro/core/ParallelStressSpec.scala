package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

/** Parallel engines on fixtures large enough to run in parallel for real.
  *
  * ``ParallelFor`` runs inline when n ≤ its chunk (100), so the small
  * fixtures of the other suites never exercise a race. Here every
  * decomposition has 1500 or more r-cliques, and the notifying parallel
  * AND, over the materialized and the on-the-fly incidences, must return
  * exactly the peeling κ on every one of many runs. The clique listings,
  * whose d_s count runs on every core, must equal brute force here too.
  */
class ParallelStressSpec extends AnyFunSuite {

  private val reps = 20
  private val threadCounts = Seq(2, 4, 8)

  private lazy val m = TestGraphs.materialize(TestGraphs.powerLaw(1500, 20000, 0.45, 30, 12, seed = 5))

  /** The materialized hypergraphs of (1,2), (2,3) and (3,4), labelled. */
  private lazy val hs = Seq((1, 2), (2, 3), (3, 4)).map { case (r, s) => s"($r,$s)" -> NucleusBuilder.hypergraph(m, r, s) }

  /** (label, incidence, peeling κ of the materialized hypergraph). */
  private lazy val cases: Seq[(String, Incidence, Array[Int])] = {
    hs.map { case (rs, h) => (s"$rs materialized", h: Incidence, Peeling.decompose(h)) } ++
      Seq(("(2,3) on the fly", new TrussOnTheFly(m.graph): Incidence, Peeling.decompose(hs(1)._2)),
          ("(3,4) on the fly", new Nucleus34OnTheFly(m.graph, m.tri): Incidence, Peeling.decompose(hs(2)._2)))
  }

  test("fixtures have at least 1500 r-cliques in every decomposition") {
    for ((label, inc, _) <- cases) assert(inc.numR >= 1500, s"$label: ${inc.numR} r-cliques")
  }

  test("the triangle listing equals brute force") {
    assert(NucleusBuilder.triangles(m.graph).sameElements(m.tri))
  }

  test("the (3,4) hypergraph's K4s, read as vertex sets, equal brute force") {
    assert(TestGraphs.k4Sets(m) == TestGraphs.k4Tuples(m))
  }

  test("sCliques writes down each materialized hypergraph: its s-cliques, each at its least member") {
    val bySeq = Ordering.Implicits.seqOrdering[Seq, Int]
    for ((label, h) <- hs) {
      val listed = NucleusBuilder.sCliques(h).grouped(h.arity).map(_.toSeq).toSeq
      assert(listed.forall(sc => sc.head == sc.min), s"$label: not at the least member")
      assert(listed.map(_.head) == listed.map(_.head).sorted, s"$label: not ascending in r")
      assert(listed.map(_.sorted).sorted(bySeq) == h.members.grouped(h.arity).map(_.sorted.toSeq).toSeq.sorted(bySeq), label)
    }
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

  test("parallel SND takes the Jacobi step of the member lists on every pass, as 1 thread does") {
    def passes(inc: Incidence, t: Int): (IterResult, Seq[Array[Int]]) = {
      val taus = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      (Snd.decompose(inc, threads = t, onIteration = (_, tau) => taus += tau.clone), taus.toSeq)
    }
    // Each incidence with the materialized hypergraph whose members define its step.
    val withMembers = hs.map { case (rs, h) => (s"$rs materialized", h: Incidence, h) } ++
      Seq(("(2,3) on the fly", new TrussOnTheFly(m.graph): Incidence, hs(1)._2),
          ("(3,4) on the fly", new Nucleus34OnTheFly(m.graph, m.tri): Incidence, hs(2)._2))
    for ((label, inc, h) <- withMembers) {
      val runs = (1 +: threadCounts).map(t => t -> passes(inc, t))
      val (seq, seqTaus) = runs.head._2
      assert(seq.iterations >= 2, s"$label: ${seq.iterations} iterations")
      for ((t, (res, taus)) <- runs) {
        for (p <- 1 until taus.length)
          assert(taus(p).sameElements(TestGraphs.sndStep(h, taus(p - 1))), s"$label, $t threads, pass $p")
        assert(res.iterations == seq.iterations, s"$label, $t threads: iterations")
        assert(taus.length == seqTaus.length && taus.indices.forall(p => taus(p).sameElements(seqTaus(p))),
               s"$label, $t threads: a pass differs from the 1-thread run's")
      }
    }
  }

  test("parallel SND and the parallel d_s count of peeling equal peeling") {
    for ((label, inc, kappa) <- cases; t <- threadCounts) {
      assert(Snd.decompose(inc, threads = t).kappa.sameElements(kappa), s"$label SND, $t threads")
      assert(Peeling.decompose(inc, threads = t).sameElements(kappa), s"$label peel, $t threads")
    }
  }
}
