package repro.core

import org.apache.spark.sql.functions.col
import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec
import repro.testutil.TestGraphs

class SndSparkSpec extends SparkSpec {

  private def run(h: Hypergraph, maxIters: Int = 1000,
                  onPass: (Int, Long) => Unit = null): (Seq[Int], Int) = {
    val (df, iters) = SndSpark.decompose(spark, SndSpark.membershipOf(spark, h), h.numR, maxIters, onPass)
    val kappa = df.collect().map(r => (r.getLong(0).toInt, r.getInt(1))).sortBy(_._1).map(_._2)
    (kappa.toSeq, iters)
  }

  test("dataflow SND equals peeling on the Figure 3 toy graph") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    val (kappa, iters) = run(h)
    assert(kappa == Seq(1, 2, 2, 2, 1, 1))
    assert(iters == 2, "same iteration count as local SND")
  }

  test("dataflow SND equals local SND on random graphs, all (r,s)") {
    for (seed <- 1 to 2; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.4, seed), r, s)
      val local = Snd.decompose(h)
      val (kappa, iters) = run(h)
      assert(kappa == local.kappa.toSeq, s"(r,s)=($r,$s) seed=$seed kappa")
      assert(iters == local.iterations, s"(r,s)=($r,$s) seed=$seed iters")
    }
  }

  test("r-cliques outside any s-clique get kappa 0") {
    val h = Hypergraph.fromSeqs(4, 2, Seq(Seq(0, 1)))
    val (kappa, _) = run(h)
    assert(kappa == Seq(1, 1, 0, 0))
  }

  test("no s-cliques: one pass, every kappa 0") {
    val passes = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
    val (kappa, iters) = run(Hypergraph.fromSeqs(3, 2, Seq.empty), onPass = (p, c) => passes += ((p, c)))
    assert(kappa == Seq(0, 0, 0) && iters == 0 && passes == Seq((1, 0L)))
  }

  test("complete-graph closed forms via the dataflow engine") {
    val h = TestGraphs.hypergraph(TestGraphs.complete(6), 2, 3)
    val (kappa, iters) = run(h)
    assert(kappa.forall(_ == 4) && iters == 0)
  }

  test("fails loudly at maxIters, after the confirming pass of a run that needs exactly maxIters") {
    val h = TestGraphs.hypergraph(TestGraphs.fig3, 1, 2)
    intercept[IllegalStateException](run(h, maxIters = 1))
    assert(run(h, maxIters = 2) == (Seq(1, 2, 2, 2, 1, 1), 2))
  }

  test("per-pass changed counts equal the tau changes between local SND snapshots") {
    for (seed <- 1 to 2; (r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(TestGraphs.randomGraph(14, 0.4, seed), r, s)
      val snaps = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      Snd.decompose(h, onIteration = (_, t) => snaps += t.clone())
      val expected = snaps.zip(snaps.tail).map { case (a, b) => a.indices.count(i => a(i) != b(i)).toLong }.toSeq
      val got = scala.collection.mutable.ArrayBuffer.empty[(Int, Long)]
      run(h, onPass = (p, c) => got += ((p, c)))
      assert(got.map(_._1) == (1 to expected.size), s"(r,s)=($r,$s) seed=$seed pass numbers")
      assert(got.map(_._2) == expected, s"(r,s)=($r,$s) seed=$seed changed counts")
    }
  }

  test("Catalyst h-index equals HIndex.naive (ScalaCheck)") {
    import spark.implicits._
    // The fixed lists pin the empty list, ties and values above the list
    // length; each random batch holds 200 lists up to 12 long, values 0–15.
    val list = Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.choose(0, 15)))
    val fixed = Seq(Nil, List(0), List(5), List(2, 2, 2), List(100, 100, 100), List(3, 3, 1, 1))
    val prop = Prop.forAll(Gen.listOfN(200, list)) { batch =>
      val xss = fixed ++ batch
      val got = xss.toDF("xs").select(SndSpark.hIndex(col("xs"))).as[Int].collect().toSeq
      got == xss.map(HIndex.naive)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10), prop)
    assert(res.passed, res.status.toString)
  }

  test("dataflow SND equals local SND on a power-law graph, all (r,s)") {
    val m = TestGraphs.materialize(TestGraphs.powerLaw(300, 3000, 0.45, 8, 8, seed = 3))
    for ((r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = NucleusBuilder.hypergraph(m, r, s)
      val local = Snd.decompose(h)
      val (kappa, iters) = run(h)
      assert(kappa == local.kappa.toSeq, s"(r,s)=($r,$s) kappa")
      assert(iters == local.iterations, s"(r,s)=($r,$s) iters")
    }
  }

  test("membershipOf lists every member slot of every s-clique, all (r,s)") {
    val g = TestGraphs.randomGraph(14, 0.4, 1)
    for ((r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(g, r, s)
      val rows = SndSpark.membershipOf(spark, h).collect().map(x => (x.getLong(0), x.getLong(1))).sorted.toSeq
      val expected = for (j <- 0 until h.numS; k <- 0 until h.arity)
        yield (j.toLong, h.members(j * h.arity + k).toLong)
      assert(h.numS > 0 && rows == expected.sorted, s"(r,s)=($r,$s)")
    }
    assert(SndSpark.membershipOf(spark, Hypergraph.fromSeqs(3, 2, Seq.empty)).count() == 0)
  }

  test("decompose gives local SND's kappa, iterations and changed counts however its input is partitioned") {
    val m = TestGraphs.materialize(TestGraphs.powerLaw(300, 3000, 0.45, 8, 8, seed = 3))
    for ((r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = NucleusBuilder.hypergraph(m, r, s)
      val snaps = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      val local = Snd.decompose(h, onIteration = (_, t) => snaps += t.clone())
      val expected = snaps.zip(snaps.tail).map { case (a, b) => a.indices.count(i => a(i) != b(i)).toLong }.toSeq
      val membership = SndSpark.membershipOf(spark, h)
      for ((layout, input) <- Seq("coalesce(1)" -> membership.coalesce(1), "repartition(7)" -> membership.repartition(7))) {
        val changed = scala.collection.mutable.ArrayBuffer.empty[Long]
        val (df, iters) = SndSpark.decompose(spark, input, h.numR, onPass = (_, c) => changed += c)
        val kappa = df.collect().map(x => (x.getLong(0).toInt, x.getInt(1))).sortBy(_._1).map(_._2).toSeq
        assert(kappa == local.kappa.toSeq, s"(r,s)=($r,$s) $layout kappa")
        assert(iters == local.iterations, s"(r,s)=($r,$s) $layout iters")
        assert(changed == expected, s"(r,s)=($r,$s) $layout changed counts")
      }
    }
  }
}
