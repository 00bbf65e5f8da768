package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

class AndSpec extends AnyFunSuite {

  private val rsAll = Seq((1, 2), (2, 3), (3, 4))

  test("empty hypergraph converges immediately") {
    val r = And.decompose(Hypergraph.fromSeqs(0, 2, Seq.empty))
    assert(r.kappa.isEmpty && r.iterations == 0)
  }

  test("equals peeling on random graphs, all (r,s), with notification") {
    for (seed <- 1 to 12; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.35, seed), r, s)
      assert(And.decompose(h).kappa.toSeq == Peeling.decompose(h).toSeq,
             s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("equals peeling without notification") {
    for (seed <- 1 to 8; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.35, seed), r, s)
      assert(And.decompose(h, notify = false).kappa.toSeq == Peeling.decompose(h).toSeq,
             s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("parallel AND equals peeling (4 threads, all (r,s))") {
    for (seed <- 1 to 6; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(30, 0.25, seed), r, s)
      assert(And.decompose(h, threads = 4).kappa.toSeq == Peeling.decompose(h).toSeq,
             s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("parallel AND equals peeling with notification disabled") {
    for (seed <- 1 to 4; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(30, 0.25, seed), r, s)
      assert(And.decompose(h, threads = 4, notify = false).kappa.toSeq ==
             Peeling.decompose(h).toSeq, s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("random processing orders still converge to kappa") {
    val rnd = new scala.util.Random(77)
    for (seed <- 1 to 6; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.4, seed), r, s)
      val order = rnd.shuffle((0 until h.numR).toVector).toArray
      assert(And.decompose(h, order = order).kappa.toSeq == Peeling.decompose(h).toSeq)
    }
  }

  test("Theorem 4: processing in the peel order (non-decreasing kappa) converges in one iteration") {
    // Theorem 4's order must break kappa-ties consistently with a peel:
    // an arbitrary permutation within a tie class can still need more
    // iterations (unprocessed same-kappa neighbours carry inflated tau0),
    // so we use the peeling removal order, which is a valid witness order.
    for (seed <- 1 to 10; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.4, seed), r, s)
      val (kappa, order) = Peeling.decomposeWithOrder(h)
      assert(order.map(kappa(_)).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)),
             "peel order is non-decreasing in kappa")
      val res = And.decompose(h, order = order, notify = false)
      assert(res.iterations <= 1, s"(r,s)=($r,$s) seed=$seed: ${res.iterations} iters")
      assert(res.kappa.toSeq == kappa.toSeq)
    }
  }

  test("paper Figure 3: kappa-ordered processing {f,e,a,b,c,d} converges in one iteration") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    // f=5, e=4, a=0, b=1, c=2, d=3.
    val res = And.decompose(h, order = Array(5, 4, 0, 1, 2, 3), notify = false)
    assert(res.iterations == 1)
    assert(res.kappa.toSeq == Seq(1, 2, 2, 2, 1, 1))
  }

  test("paper Figure 3: alphabetical order {a..f} needs two iterations") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    val res = And.decompose(h, order = Array(0, 1, 2, 3, 4, 5), notify = false)
    assert(res.iterations == 2 && res.passes == 3)
    assert(res.tauComputations == 18L, "6 vertices x 3 passes without notification")
    assert(res.verifyPasses == 0, "without notification the last pass is already full")
  }

  test("paper Figure 5: notification mechanism does 8 tau computations in 3 passes") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    val res = And.decompose(h, order = Array(0, 1, 2, 3, 4, 5), notify = true)
    assert(res.kappa.toSeq == Seq(1, 2, 2, 2, 1, 1))
    assert(res.passes == 3, "pass 3 finds everyone idle")
    // Paper's count: 6 in pass 1, then pass 2 recomputes a (notified by e)
    // whose update notifies b within the same pass; pass 3 is all idle.
    assert(res.tauComputations == 8L)
    assert(res.activeTrace == Vector(6L, 2L, 0L))
    // Then one full verification pass, counted apart, confirms the fixpoint.
    assert(res.verifyPasses == 1 && res.verifyTauComputations == 6L)
  }

  test("notification never does more tau computations than no-notification") {
    for (seed <- 1 to 8; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      val withN = And.decompose(h, notify = true)
      val without = And.decompose(h, notify = false)
      assert(withN.tauComputations <= without.tauComputations, s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("sequential AND iterations never exceed SND iterations on the natural order") {
    // Gauss-Seidel with fresher values cannot be slower than Jacobi when
    // both sweep the same order (worst case degrades to SND, per §4.2).
    for (seed <- 1 to 8; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.35, seed), r, s)
      assert(And.decompose(h, notify = false).iterations <= Snd.decompose(h).iterations,
             s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("monotone decrease of tau during AND") {
    for (seed <- 1 to 5; (r, s) <- rsAll) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.4, seed), r, s)
      var prev: Seq[Int] = null
      And.decompose(h, onIteration = (_, t) => {
        if (prev != null) assert(t.toSeq.zip(prev).forall { case (a, b) => a <= b })
        prev = t.toSeq
      })
    }
  }

  test("order argument must be a permutation-sized array") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    intercept[IllegalArgumentException] { And.decompose(h, order = Array(0, 1)) }
    // The right length, but vertex 0 is never visited and 1 twice.
    for (notify <- Seq(true, false))
      intercept[IllegalArgumentException] { And.decompose(h, notify = notify, order = Array(1, 1, 2, 3, 4, 5)) }
  }
}
