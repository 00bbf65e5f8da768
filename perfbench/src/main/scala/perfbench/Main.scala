package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.synth.{GraphGen, Proxies}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point: one workload, one seed, one run. It sets up, runs
  * operations for the given seconds, checks every κ, and writes a report
  * (raw samples, failures, host and configuration) as JSON; `run.py` turns
  * that into the result line.
  *
  * {{{
  * perfbench.Main --workload W --seed N --seconds S --trace 0|1 --report FILE
  *                [--graph complete:N|figure3] [--inject-wrong-kappa]
  * }}}
  * ``--graph`` replaces the workload's proxy by a tiny graph and
  * ``--inject-wrong-kappa`` corrupts one κ of the first operation; both exist
  * for the benchmark's self-tests.
  */
object Main {
  /** Shuffle partitions of the program's jobs and test sessions. */
  val ShufflePartitions = 64
  /** Input generations timed in set-up; set-up reports their median. */
  val Generations = 3

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean,
                           report: String, graph: Option[String], injectWrongKappa: Boolean)

  def parse(args: Array[String]): Options = {
    val kv = mutable.HashMap.empty[String, String]
    var inject = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--inject-wrong-kappa" => inject = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => kv(k.drop(2)) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"bad argument: $other")
      }
    }
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toDouble,
            need("trace") == "1", need("report"), kv.get("graph"), inject)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val workload = Workload(o.workload)
    val threads = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    try {
      val report = run(o, workload, spark, threads)
      new ObjectMapper().registerModule(DefaultScalaModule).writeValue(new File(o.report), report)
    } finally spark.stop()
  }

  /** Input edges of the run: the workload's proxy (or a tiny graph) with its
    * vertex ids permuted by the seed. The seed changes every id, Spark's
    * partitioning, degree-rank ties and collect order, but
    * not the graph's structure, so the work an operation does (its cliques,
    * its SND passes) is the same on every seed. Drawing a new Chung–Lu graph
    * per seed would not be: SND pass counts differ by up to 2x between
    * seeds of one proxy, which would swamp any change to the program.
    */
  def input(o: Options, w: Workload): (String, SparkSession => DataFrame) = {
    val (name, n, generate) = o.graph match {
      case None =>
        val spec = Proxies.byName(w.proxy)
        (spec.name, spec.n, spec.generate _)
      case Some("figure3") => ("figure3", 6L, GraphGen.figure3Toy _)
      case Some(g) if g.startsWith("complete:") =>
        val k = g.drop(9).toInt
        (g, k.toLong, GraphGen.complete(_: SparkSession, k))
      case Some(g) => throw new IllegalArgumentException(s"unknown graph: $g")
    }
    (name, spark => permuted(generate(spark), n, o.seed))
  }

  /** ``edges`` (ids in [0, n)) with ids mapped through a seeded permutation. */
  def permuted(edges: DataFrame, n: Long, seed: Long): DataFrame = {
    val perm = edges.sparkSession.sparkContext.broadcast(
      new scala.util.Random(seed).shuffle((0L until n).toVector).toArray)
    val to = udf((id: Long) => perm.value(id.toInt))
    val c = edges.columns
    edges.select(to(col(c(0)).cast("long")).as("u"), to(col(c(1)).cast("long")).as("v"))
  }

  def run(o: Options, w: Workload, spark: SparkSession, threads: Int): Map[String, Any] = {
    val sessionS =
      (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val env = new Env(spark, threads, if (o.trace) Some(new SparkPhases(spark.sparkContext)) else None)
    val (graphName, generate) = input(o, w)

    var edges: DataFrame = null
    val generationS = (1 to Generations).map { _ =>
      val t0 = System.nanoTime()
      edges = generate(spark).localCheckpoint(true)
      (System.nanoTime() - t0) / 1e9
    }
    val t0 = System.nanoTime()
    val setupSpans = new Spans
    env.tracing = o.trace && w.traceSetup
    w.setup(env, edges, setupSpans)
    if (env.tracing) layerSpans(setupSpans).foreach { case (k, v) => env.sample(k, v) }
    env.tracing = false

    var inject = o.injectWrongKappa
    var last: Seq[Result] = Nil
    val tracedOpS = mutable.ArrayBuffer.empty[Double]
    def runOp(i: Int, traced: Boolean, timed: Boolean): Unit = {
      val spans = new Spans
      env.tracing = traced
      val s0 = System.nanoTime()
      val results =
        try Some(w.op(env, spans))
        catch { case NonFatal(e) => env.thrown(i, w.kappasPerOp, e); None }
        finally env.tracing = false
      val wallS = (System.nanoTime() - s0) / 1e9
      for (rs <- results) {
        if (inject && rs.nonEmpty && rs.head.kappa.nonEmpty) { rs.head.kappa(0) += 1; inject = false }
        env.verify(i, rs)
        last = rs
        if (traced) {
          tracedOpS += wallS
          layerSpans(spans).foreach { case (k, v) => env.sample(k, v) }
          env.sample("trace.unattributed_ms", wallS * 1e3 - spans.coveredMs)
          env.verify(i, w.traceExtras(env, i))
        } else if (timed) {
          env.sample("kappa_s", wallS)
          // Calls made once per operation, plus the median of any rounds.
          for (c <- Seq("peel", "and", "snd")) {
            val inRounds = spans.rounds.toSeq.map(_.getOrElse(c, 0.0))
            val once = spans.ms.getOrElse(c, 0.0) - inRounds.sum
            env.sample(s"${c}_s", (once + (if (inRounds.isEmpty) 0.0 else median(inRounds))) / 1e3)
          }
        }
      }
    }

    (1 to w.warmupOps).foreach(i => runOp(i, traced = false, timed = false))
    val setupS = sessionS + median(generationS) + (System.nanoTime() - t0) / 1e9
    env.sample("setup_s", setupS)

    // Operations start while the next one, as long as the median so far,
    // still ends within the measured seconds, so a run does not overshoot
    // them by up to a whole operation.
    val start = System.nanoTime()
    val opS = mutable.ArrayBuffer.empty[Double]
    def fits = (System.nanoTime() - start) / 1e9 + median(opS.toSeq) <= o.seconds
    var n = 0
    while (n == 0 || fits || (o.trace && n < 2)) {
      val s0 = System.nanoTime()
      runOp(w.warmupOps + n + 1, traced = o.trace && n % 2 == 1, timed = true)
      opS += (System.nanoTime() - s0) / 1e9
      n += 1
    }
    if (o.trace && tracedOpS.nonEmpty && env.samples.contains("kappa_s"))
      env.sample("trace.overhead_frac", median(tracedOpS.toSeq) / median(env.samples("kappa_s").toSeq) - 1)

    // Spark's ContextCleaner drops blocks of unreferenced checkpoints only
    // after a GC has found them; give it that GC and a moment, then measure.
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(200) }
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    java.lang.ref.Reference.reachabilityFence(w)
    java.lang.ref.Reference.reachabilityFence(edges)
    java.lang.ref.Reference.reachabilityFence(last)
    env.sample("heap_mb", heapMb)

    val rt = Runtime.getRuntime
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val config = Map(
      "workload" -> o.workload, "graph" -> graphName, "seed" -> o.seed,
      "seconds" -> o.seconds, "trace" -> o.trace,
      "nproc" -> threads, "engine_threads" -> threads,
      "design_doc_threads" -> 16, "paper_threads" -> 24,
      "spark_master" -> spark.sparkContext.master,
      "spark_shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark_version" -> spark.version,
      "xmx_mb" -> rt.maxMemory / 1048576,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}",
      "graph_counts" -> env.graphCounts.map(c =>
        Map("vertices" -> c.v, "edges" -> c.e, "triangles" -> c.tri, "k4" -> c.k4)).orNull,
      "warmup_ops" -> w.warmupOps, "timed_ops" -> n, "kappas_per_op" -> w.kappasPerOp,
      "generation_s" -> generationS, "session_start_s" -> sessionS,
      "gc_count" -> gcs.map(_.getCollectionCount).sum,
      "gc_s" -> gcs.map(_.getCollectionTime).sum / 1e3,
    )
    Map(
      "config" -> config,
      "reference_sound" -> env.referenceSound,
      "attempted" -> env.attempted,
      "failed" -> env.failed,
      "failures" -> env.failures.take(200).toSeq,
      "samples" -> env.samples.map { case (k, v) => k -> v.toSeq }.toMap,
    )
  }

  /** Spans named after a per-layer metric (dotted names), in ms. */
  def layerSpans(s: Spans): Iterable[(String, Double)] = s.ms.filter(_._1.contains('.'))
}
