package repro.core

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

  test("pass kernels equal min-of-the-others and HIndex.naive (ScalaCheck)") {
    // The rows of a CSR from the list lengths.
    def offsets(rows: Seq[Seq[Int]]): Array[Int] = rows.scanLeft(0)(_ + _.size).toArray
    // s-side kernel: each batch holds 200 s-cliques of 2–4 members with τ in
    // 0–3, so ties are common.
    val group = Gen.choose(2, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 3)))
    val rhoProp = Prop.forAll(Gen.listOfN(200, group)) { taus =>
      val v = taus.flatten.toArray
      SndSpark.leastOfOthers(offsets(taus), v)
      v.toSeq == taus.flatMap(ts => ts.indices.map(k => ts.patch(k, Nil, 1).min))
    }
    // r-side kernel: the fixed lists pin no slots, ties and values above the
    // list length; each random batch holds 200 r-cliques of 1–12 ρ's in 0–15.
    val list = Gen.choose(1, 12).flatMap(Gen.listOfN(_, Gen.choose(0, 15)))
    val fixed = Seq(List(), List(0), List(5), List(2, 2, 2), List(100, 100, 100), List(3, 3, 1, 1))
    val tauProp = Prop.forAll(Gen.listOfN(200, list)) { batch =>
      val rows = fixed ++ batch
      SndSpark.hIndexes(offsets(rows), rows.flatten.toArray).toSeq == rows.map(HIndex.naive)
    }
    for (prop <- Seq(rhoProp, tauProp)) {
      val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10), prop)
      assert(res.passed, res.status.toString)
    }
  }

  test("an s-clique with fewer than 2 members fails loudly, naming its sid") {
    import spark.implicits._
    val membership = Seq((0L, 0L), (0L, 1L), (1L, 1L)).toDF("sid", "rid")
    val e = intercept[Exception](SndSpark.decompose(spark, membership, 2))
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains("s-clique 1 ")),
           causes.map(_.toString).mkString("; "))
  }

  test("hub r-clique: the star K(1,3000) as (1,2) gives local SND's kappa, iterations and changed counts") {
    val h = TestGraphs.hypergraph(Array.tabulate(3000)(i => (0, i + 1)), 1, 2)
    val snaps = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    val local = Snd.decompose(h, onIteration = (_, t) => snaps += t.clone())
    val expected = snaps.zip(snaps.tail).map { case (a, b) => a.indices.count(i => a(i) != b(i)).toLong }.toSeq
    val changed = scala.collection.mutable.ArrayBuffer.empty[Long]
    val (kappa, iters) = run(h, onPass = (_, c) => changed += c)
    assert(kappa == local.kappa.toSeq && iters == local.iterations && changed == expected)
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

  /** The causes of ``e``, outermost first. */
  private def causes(e: Throwable): Seq[Throwable] =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).toSeq

  test("ids past the 32-bit address limits fail loudly, naming the id") {
    import spark.implicits._
    val big = Int.MaxValue + 1L
    for ((rows, numR, named) <- Seq(
           (Seq((-1L, 0L), (-1L, 1L)), 2L, "sid -1 "),
           (Seq((big, 0L), (big, 1L)), 2L, s"sid $big "),
           (Seq((0L, -1L), (0L, 1L)), 2L, "rid -1 "),
           (Seq((0L, 0L), (0L, big)), big - 1, s"rid $big "),
           (Seq((0L, 0L), (0L, 5L)), 3L, "rid 5 is not below numR = 3"))) {
      val e = intercept[Exception](SndSpark.decompose(spark, rows.toDF("sid", "rid"), numR))
      assert(causes(e).exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains(named)),
             causes(e).map(_.toString).mkString("; "))
    }
    val e = intercept[IllegalArgumentException](
      SndSpark.decompose(spark, Seq((0L, 0L), (0L, 1L)).toDF("sid", "rid"), big))
    assert(e.getMessage.contains(s"numR = $big"))
  }

  test("superseded passes are unpersisted: a run of 10+ passes leaves at most one persistent RDD") {
    val h = TestGraphs.hypergraph(Array.tabulate(29)(i => (i, i + 1)), 1, 2)
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val (kappa, iters) = run(h)
    val left = spark.sparkContext.getPersistentRDDs.keySet -- before
    assert(kappa == Seq.fill(30)(1) && iters >= 10, s"iters=$iters")
    assert(left.size <= 1, s"$left left persistent after ${iters + 1} passes")
  }

  test("one job per pass: a decompose and its collect run at most passes + 3 jobs") {
    import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
    val sc = spark.sparkContext
    val m = TestGraphs.materialize(TestGraphs.powerLaw(300, 3000, 0.45, 8, 8, seed = 3))
    val h = NucleusBuilder.hypergraph(m, 1, 2)
    val jobs = new java.util.concurrent.ConcurrentHashMap[String, Integer]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
        if (g != null) jobs.merge(g, 1, (a, b) => a + b)
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("snd", "decompose")
      val (kappa, iters) = try run(h) finally sc.clearJobGroup()
      assert(kappa == Snd.decompose(h).kappa.toSeq)
      // Listener events arrive in order: once the marker job is seen, so
      // are all of the run's.
      sc.setJobGroup("marker", "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!jobs.containsKey("marker") && System.nanoTime() < deadline) Thread.sleep(2)
      val passes = iters + 1
      assert(jobs.containsKey("marker") && passes >= 5 && jobs.get("snd") <= passes + 3,
             s"${jobs.get("snd")} jobs for $passes passes")
    } finally sc.removeSparkListener(listener)
  }
}
