package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.TestGraphs

class HypergraphSpec extends AnyFunSuite {

  test("empty hypergraph") {
    val h = Hypergraph.fromSeqs(0, 2, Seq.empty)
    assert(h.numR == 0 && h.numS == 0 && h.degrees.isEmpty)
  }

  test("isolated r-cliques get degree 0") {
    val h = Hypergraph.fromSeqs(5, 2, Seq(Seq(0, 1)))
    assert(h.degree(0) == 1 && h.degree(1) == 1)
    assert((2 to 4).forall(h.degree(_) == 0))
  }

  test("incidence CSR is consistent with membership") {
    val sCliques = Seq(Seq(0, 1, 2), Seq(1, 2, 3), Seq(0, 2, 3))
    val h = Hypergraph.fromSeqs(4, 3, sCliques)
    val buf = new Array[Int](sCliques.length * h.others)
    for (r <- 0 until 4) {
      val expected = sCliques.filter(_.contains(r)).map(_.filter(_ != r))
      val got = buf.take(h.gather(r, buf) * h.others).grouped(h.others).map(_.toSeq).toSeq
      assert(got.length == expected.length && got.toSet == expected.toSet, s"incidence of r-clique $r")
    }
  }

  test("degrees array equals per-node degree") {
    val h = TestGraphs.hypergraph(TestGraphs.randomGraph(20, 0.3, 1), 2, 3)
    assert(h.degrees.toSeq == (0 until h.numR).map(h.degree))
  }

  test("sum of degrees equals arity * numS") {
    for (seed <- 1 to 5; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(15, 0.4, seed), r, s)
      assert(h.degrees.map(_.toLong).sum == h.arity.toLong * h.numS, s"(r,s)=($r,$s) seed=$seed")
    }
  }

  test("fromSeqs rejects wrong arity and duplicate members") {
    intercept[IllegalArgumentException] { Hypergraph.fromSeqs(3, 3, Seq(Seq(0, 1))) }
    intercept[IllegalArgumentException] { Hypergraph.fromSeqs(3, 3, Seq(Seq(0, 1, 1))) }
  }

  test("k-core hypergraph of K5: every vertex in 4 edges") {
    val h = TestGraphs.hypergraph(TestGraphs.complete(5), 1, 2)
    assert(h.numR == 5 && h.numS == 10 && h.degrees.forall(_ == 4))
  }

  test("truss hypergraph of K5: every edge in 3 triangles") {
    val h = TestGraphs.hypergraph(TestGraphs.complete(5), 2, 3)
    assert(h.numR == 10 && h.numS == 10 && h.degrees.forall(_ == 3))
  }

  test("(3,4) hypergraph of K5: every triangle in 2 four-cliques") {
    val h = TestGraphs.hypergraph(TestGraphs.complete(5), 3, 4)
    assert(h.numR == 10 && h.numS == 5 && h.degrees.forall(_ == 2))
  }
}
