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
    // A resident state and a pass's messages: partition q of P holds rows
    // whose values go from ``before`` to ``after``; each slot whose value is
    // rewritten (some to the same value) gets a message (k·P + q, value), in
    // a shuffled order. None when ``all``, as in pass 1.
    case class Pass(before: Seq[Seq[Int]], after: Seq[Seq[Int]], p: Int, q: Int, msgs: Seq[(Long, Int)])
    def pass(rows: Gen[Seq[Seq[Int]]], value: Gen[Int], all: Boolean = false): Gen[Pass] = for {
      before <- rows; p <- Gen.choose(1, 8); q <- Gen.choose(0, p - 1)
      rewrite <- Gen.listOfN(before.map(_.size).sum, Gen.option(value)); seed <- Gen.long
    } yield {
      val news = if (all) Seq.fill(rewrite.size)(None) else rewrite
      val (flat, slots) = (before.flatten, offsets(before))
      val after = before.indices.map(i => (slots(i) until slots(i + 1)).map(k => news(k).getOrElse(flat(k))))
      val msgs = for ((x, k) <- news.zipWithIndex; v <- x) yield (k.toLong * p + q, v)
      Pass(before, after, p, q, new scala.util.Random(seed).shuffle(msgs))
    }
    // s-side kernel: 200 s-cliques of 2–4 members with τ in 0–3, so ties are
    // common, between empty rows (gaps in the sids).
    def others(ts: Seq[Int]): Seq[Int] = ts.indices.map(k => ts.patch(k, Nil, 1).min)
    val sRows = Gen.listOfN(200, Gen.frequency(
      1 -> Gen.const(Nil), 4 -> Gen.choose(2, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 3)))))
      .map(_ ++ Seq(Nil))
    def rhoProp(all: Boolean) = Prop.forAll(pass(sRows, Gen.choose(0, 3), all)) { x =>
      // The resident ρ is the min-of-the-others of ``before`` (-1 before pass 1).
      val tau = x.before.flatten.toArray
      val rho = if (all) Array.fill(tau.length)(-1) else x.before.flatMap(others).toArray
      val old = rho.clone()
      val sent = SndSpark.leastOfOthers(offsets(x.before), tau, rho, x.p, x.msgs.iterator, all)
      val full = x.after.flatMap(others)
      tau.toSeq == x.after.flatten && rho.toSeq == full &&
        sent.sorted.toSeq == full.indices.filter(k => full(k) != old(k))
    }
    // r-side kernel: the fixed lists pin no slots, ties and values above the
    // list length; each random batch holds 200 r-cliques of 0–12 ρ's in 0–15.
    val fixed = Seq(List(), List(0), List(5), List(2, 2, 2), List(100, 100, 100), List(3, 3, 1, 1))
    val rRows = Gen.listOfN(200, Gen.choose(0, 12).flatMap(Gen.listOfN(_, Gen.choose(0, 15)))).map(fixed ++ _)
    val tauProp = Prop.forAll(pass(rRows, Gen.choose(0, 15))) { x =>
      // The resident τ is H of ``before``; addressed placement plus H of the
      // touched rows gives H of every row of ``after``.
      val rho = x.before.flatten.toArray
      val tau = x.before.map(HIndex.naive).toArray
      val changed = SndSpark.hIndexes(offsets(x.before), rho, tau, x.p, x.msgs.iterator)
      val full = x.after.map(HIndex.naive)
      rho.toSeq == x.after.flatten && tau.toSeq == full &&
        changed.sorted.toSeq == full.indices.filter(i => full(i) != HIndex.naive(x.before(i)))
    }
    for (prop <- Seq(rhoProp(all = false), rhoProp(all = true), tauProp)) {
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

  test("a run that throws releases all its state: maxIters and a one-member s-clique leave no persistent RDD") {
    import spark.implicits._
    val before = spark.sparkContext.getPersistentRDDs.keySet
    intercept[IllegalStateException](run(TestGraphs.hypergraph(TestGraphs.fig3, 1, 2), maxIters = 1))
    intercept[Exception](SndSpark.decompose(spark, Seq((0L, 0L), (0L, 1L), (1L, 1L)).toDF("sid", "rid"), 2))
    val left = spark.sparkContext.getPersistentRDDs.keySet -- before
    assert(left.isEmpty, s"$left left persistent")
  }

  test("sparse sids leave empty local rows and still give local SND's kappa, iterations and changed counts") {
    import spark.implicits._
    // sid j becomes j·(2P + 1): two sids of one partition are at least 2P + 1
    // apart, so every partition's rows have gaps.
    val stride = 2L * spark.sparkContext.defaultParallelism + 1
    val g = TestGraphs.randomGraph(14, 0.4, 1)
    for ((r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = TestGraphs.hypergraph(g, r, s)
      val snaps = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      val local = Snd.decompose(h, onIteration = (_, t) => snaps += t.clone())
      val expected = snaps.zip(snaps.tail).map { case (a, b) => a.indices.count(i => a(i) != b(i)).toLong }.toSeq
      val membership = (0 until h.members.length).map(i => (i / h.arity * stride, h.members(i).toLong)).toDF("sid", "rid")
      val changed = scala.collection.mutable.ArrayBuffer.empty[Long]
      val (df, iters) = SndSpark.decompose(spark, membership, h.numR, onPass = (_, c) => changed += c)
      val kappa = df.collect().map(x => (x.getLong(0).toInt, x.getInt(1))).sortBy(_._1).map(_._2).toSeq
      assert(kappa == local.kappa.toSeq && iters == local.iterations && changed == expected, s"(r,s)=($r,$s)")
    }
  }

  /** Runs ``body`` as job group "snd" and returns its value, the group's
    * jobs, its stages that ran shuffle-map tasks (a skipped stage runs none)
    * and the shuffle records those tasks wrote.
    */
  private def watched[T](body: => T): (T, Int, Int, Long) = {
    import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
    val sc = spark.sparkContext
    val jobs = new java.util.concurrent.ConcurrentHashMap[String, Integer]()
    val stages, shuffleStages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val records = new java.util.concurrent.atomic.AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
        if (g != null) jobs.merge(g, 1, (a, b) => a + b)
        if (g == "snd") e.stageIds.foreach(stages.add)
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) && e.taskMetrics != null) {
          if (e.taskType == "ShuffleMapTask") shuffleStages.add(e.stageId)
          records.addAndGet(e.taskMetrics.shuffleWriteMetrics.recordsWritten)
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("snd", "decompose")
      val value = try body finally sc.clearJobGroup()
      // Listener events arrive in order: once the marker job is seen, so
      // are all of the run's.
      sc.setJobGroup("marker", "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!jobs.containsKey("marker") && System.nanoTime() < deadline) Thread.sleep(2)
      assert(jobs.containsKey("marker"), "listener events of the run did not arrive")
      (value, jobs.getOrDefault("snd", 0), shuffleStages.size, records.get)
    } finally sc.removeSparkListener(listener)
  }

  test("one job per pass: a decompose and its collect run at most passes + 3 jobs") {
    val m = TestGraphs.materialize(TestGraphs.powerLaw(300, 3000, 0.45, 8, 8, seed = 3))
    val h = NucleusBuilder.hypergraph(m, 1, 2)
    val ((kappa, iters), jobs, shuffles, _) = watched(run(h))
    assert(kappa == Snd.decompose(h).kappa.toSeq)
    val passes = iters + 1
    assert(passes >= 5 && jobs <= passes + 3, s"$jobs jobs for $passes passes")
    // Two shuffles a pass, one in pass 1 and three in the set-up.
    assert(shuffles <= 2 * passes + 2, s"$shuffles shuffles for $passes passes")
  }

  test("passes ship deltas: shuffle records are the set-up's 3 per member plus each pass's changed tau slots and rho's") {
    val m = TestGraphs.materialize(TestGraphs.powerLaw(300, 3000, 0.45, 8, 8, seed = 3))
    for ((r, s) <- Seq((1, 2), (2, 3), (3, 4))) {
      val h = NucleusBuilder.hypergraph(m, r, s)
      val (a, members) = (h.arity, h.members)
      val snaps = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      Snd.decompose(h, onIteration = (_, t) => snaps += t.clone())
      val degree = new Array[Int](h.numR)
      members.foreach(r => degree(r) += 1)
      // ρ of every member slot under τ: the least τ of its s-clique's others.
      def rho(tau: Array[Int]): Array[Int] = Array.tabulate(members.length) { k =>
        val j = k / a * a
        (j until j + a).filter(_ != k).map(x => tau(members(x))).min
      }
      val rhos = snaps.map(rho)
      // Pass t sends τ from the r-cliques that pass t − 1 changed, to each of
      // their d_s slots, and ρ where it changed (every slot in pass 1).
      val perPass = for (t <- 1 until snaps.size) yield {
        val taus = if (t == 1) 0L
                   else (0 until h.numR).filter(i => snaps(t - 1)(i) != snaps(t - 2)(i)).map(degree(_).toLong).sum
        val sent = if (t == 1) members.length
                   else members.indices.count(k => rhos(t - 1)(k) != rhos(t - 2)(k))
        taus + sent
      }
      val ((_, iters), _, _, records) = watched(run(h))
      assert(iters + 1 == perPass.size, s"(r,s)=($r,$s) passes")
      assert(records == 3L * members.length + perPass.sum,
             s"(r,s)=($r,$s) $records records; set-up ${3L * members.length}, passes ${perPass.mkString(", ")}")
    }
  }
}
