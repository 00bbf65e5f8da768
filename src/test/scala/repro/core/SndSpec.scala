package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

class SndSpec extends AnyFunSuite {

  test("empty hypergraph converges immediately") {
    val r = Snd.decompose(Hypergraph.fromSeqs(0, 2, Seq.empty))
    assert(r.kappa.isEmpty && r.iterations == 0 && r.passes == 0)
  }

  test("K_n converges with zero update iterations (tau0 already kappa)") {
    for (n <- 3 to 7; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val res = Snd.decompose(TestGraphs.hypergraph(TestGraphs.complete(n), r, s))
      assert(res.iterations == 0 && res.passes == 1, s"K$n (r,s)=($r,$s)")
    }
  }

  test("paper Figure 3 trace: SND on the toy graph converges in 2 iterations") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    val snaps = scala.collection.mutable.ArrayBuffer.empty[Seq[Int]]
    val res = Snd.decompose(h, onIteration = (_, t) => snaps += t.toSeq)
    // Ids: a=0 b=1 c=2 d=3 e=4 f=5.
    assert(snaps(0) == Seq(2, 3, 2, 2, 2, 1), "tau0 = degrees")
    assert(snaps(1) == Seq(2, 2, 2, 2, 1, 1), "tau1 (paper: updates at b and e)")
    assert(snaps(2) == Seq(1, 2, 2, 2, 1, 1), "tau2 (paper: update at a)")
    assert(res.iterations == 2 && res.passes == 3)
    assert(res.kappa.toSeq == Seq(1, 2, 2, 2, 1, 1))
  }

  test("equals peeling on random graphs, all (r,s)") {
    for (seed <- 1 to 12; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(12, 0.35, seed), r, s)
      assert(Snd.decompose(h).kappa.toSeq == Peeling.decompose(h).toSeq,
             s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("every pass is the Jacobi step of the pass before, from the member lists") {
    var multiPass = 0
    for (seed <- 1 to 12; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.4, seed), r, s)
      val passes = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      val res = Snd.decompose(h, onIteration = (_, t) => passes += t.clone)
      for (p <- 1 until passes.length)
        assert(passes(p).sameElements(TestGraphs.sndStep(h, passes(p - 1))), s"(r,s)=($r,$s) seed=$seed pass $p")
      if (res.iterations >= 2) multiPass += 1
    }
    assert(multiPass > 0, "no fixture took two iterations")
  }

  test("parallel SND equals sequential SND (same kappa and iteration count)") {
    for (seed <- 1 to 6; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(30, 0.25, seed), r, s)
      val seq = Snd.decompose(h, threads = 1)
      val par = Snd.decompose(h, threads = 4)
      assert(par.kappa.toSeq == seq.kappa.toSeq, s"kappa (r,s)=($r,$s) seed=$seed")
      assert(par.iterations == seq.iterations, s"iters (r,s)=($r,$s) seed=$seed")
    }
  }

  test("Theorem 1 monotonicity: tau never increases across iterations") {
    for (seed <- 1 to 6; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.4, seed), r, s)
      var prev: Seq[Int] = null
      Snd.decompose(h, onIteration = (_, t) => {
        if (prev != null) assert(t.toSeq.zip(prev).forall { case (a, b) => a <= b })
        prev = t.toSeq
      })
    }
  }

  test("Theorem 1 lower bound: tau >= kappa at every iteration") {
    for (seed <- 1 to 6; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.4, seed), r, s)
      val kappa = Peeling.decompose(h)
      Snd.decompose(h, onIteration = (_, t) =>
        assert(t.zip(kappa).forall { case (a, b) => a >= b }))
    }
  }

  test("tauComputations = numR * passes (no notification in SND)") {
    val h = TestGraphs.hypergraph(TestGraphs.randomGraph(20, 0.3, 5), 1, 2)
    val res = Snd.decompose(h)
    assert(res.tauComputations == h.numR.toLong * res.passes)
  }
}
