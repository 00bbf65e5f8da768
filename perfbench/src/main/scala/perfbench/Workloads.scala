package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.cliques.{FourCliques, Triangles}
import repro.core._
import repro.core.NucleusBuilder.Materialized
import repro.graph.{GraphOps, LocalGraph}
import repro.synth.GraphGen
import scala.collection.mutable

/** One κ array an operation produced, with what is needed to check it. */
final case class Result(label: String, d: Decomp, m: Materialized, kappa: Array[Int],
                        hitMaxIters: Boolean = false)

/** State one run shares: the session, engine threads, the optional Spark
  * listener of a traced run, the samples, the failure counts and the
  * peeling references every κ is checked against.
  */
final class Env(val spark: SparkSession, val threads: Int, phases: Option[SparkPhases]) {
  /** Whether calls are split into layers and attributed to Spark phases now. */
  var tracing = false

  val samples: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]] = mutable.LinkedHashMap.empty
  def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer()) += v

  var attempted, failed = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  var referenceSound = true
  var graphCounts: Option[Check.Counts] = None
  private def unsound(msg: String): Unit = { referenceSound = false; failures += s"reference: $msg" }

  private var refM: Materialized = _
  private val refs = mutable.LinkedHashMap.empty[Decomp, Check.Reference]
  private val refAlign = mutable.HashMap.empty[Decomp, Array[Int]]

  /** Run ``f`` as a Spark phase when tracing, recording its Spark work under
    * ``spark.<phase>.*`` against the phase wall time.
    */
  def sparkPhase[T](phase: String, spans: Spans, span: String)(f: => T): T = phases match {
    case Some(p) if tracing =>
      val t0 = System.nanoTime()
      val (out, w) = spans.time(span)(p.run(phase)(f))
      val wallMs = (System.nanoTime() - t0) / 1e6
      sample(s"spark.$phase.jobs", w.jobs.toDouble)
      sample(s"spark.$phase.tasks", w.tasks.toDouble)
      sample(s"spark.$phase.task_ms", w.taskMs.toDouble)
      sample(s"spark.$phase.shuffle_write_mb", w.shuffleWriteBytes / 1e6)
      sample(s"spark.$phase.shuffle_read_mb", w.shuffleReadBytes / 1e6)
      sample(s"spark.$phase.result_mb", w.resultBytes / 1e6)
      sample(s"spark.$phase.busy_frac", w.taskMs / (wallMs * threads))
      sample(s"spark.$phase.empty_task_frac", if (w.tasks == 0) 0.0 else w.emptyTasks.toDouble / w.tasks)
      out
    case _ => spans.time(span)(f)
  }

  /** ``NucleusBuilder.materialize``; traced, the same steps are called one
    * layer at a time so each gets its own span and Spark counters.
    */
  def materialize(edges: DataFrame, maxS: Int, spans: Spans): Materialized =
    if (!tracing) spans.time("materialize")(NucleusBuilder.materialize(edges, maxS))
    else {
      val rel = sparkPhase("relabel", spans, "graph.relabel_ms") {
        val r = GraphOps.relabelByDegree(GraphOps.canonicalize(edges)).cache()
        r.count()
        r
      }
      try {
        val g = sparkPhase("local_graph", spans, "graph.local_graph_ms")(LocalGraph.fromEdges(rel))
        val triDf = Triangles.enumerate(rel).cache()
        try {
          val tri = if (maxS < 3) Array.emptyIntArray
            else sparkPhase("triangles", spans, "cliques.triangles_ms")(flatten(triDf.collect(), 3))
          val quad = if (maxS < 4) Array.emptyIntArray
            else sparkPhase("k4", spans, "cliques.k4_ms")(flatten(FourCliques.enumerate(rel, triDf).collect(), 4))
          val m = Materialized(g, tri, quad)
          sample("graph.edges", m.graph.m)
          sample("cliques.triangles", m.numTriangles)
          sample("cliques.k4", m.numQuads)
          m
        } finally triDf.unpersist()
      } finally rel.unpersist()
    }

  private def flatten(rows: Array[Row], width: Int): Array[Int] = {
    val out = new Array[Int](rows.length * width)
    var i = 0
    while (i < rows.length) {
      var k = 0
      while (k < width) { out(width * i + k) = rows(i).getLong(k).toInt; k += 1 }
      i += 1
    }
    out
  }

  def hypergraph(m: Materialized, d: Decomp, spans: Spans): Hypergraph =
    spans.time(s"core.hypergraph_ms.${d.name}")(NucleusBuilder.hypergraph(m, d.r, d.s))

  /** Set the peeling references for ``m`` (enumerated up to ``maxS``-cliques). Each is cross-checked against SND
    * (a different algorithm with the same fixpoint), and the clique counts
    * against a local enumeration of the raw edges; a disagreement
    * marks the run's references unsound.
    */
  def setReferences(edges: DataFrame, m: Materialized, maxS: Int, hs: Map[Decomp, Hypergraph]): Unit = {
    val got = Check.counts(m)
    graphCounts = Some(got)
    val all = Check.independentCounts(edges)
    val want = if (maxS < 4) all.copy(k4 = 0) else all
    if (got != want) unsound(s"program counts $got, local enumeration $want")
    refM = m
    for ((d, h) <- hs) {
      val k = Peeling.decompose(h)
      if (!java.util.Arrays.equals(k, Snd.decompose(h, threads).kappa))
        unsound(s"peeling and SND disagree on ${d.name}")
      refs(d) = new Check.Reference(Check.keys(m, d), k)
    }
  }

  /** Check every κ of one operation, counting each as attempted and each
    * wrong one as failed; returns the failed results.
    */
  def verify(op: Int, results: Seq[Result]): Seq[Result] = {
    val bad = wrong(op, results)
    attempted += results.size
    failed += bad.size
    bad
  }

  /** The results whose κ differs from the reference (or that stopped at
    * maxIters), each listed in [[failures]]; nothing is counted.
    */
  def wrong(op: Int, results: Seq[Result]): Seq[Result] =
    results.filter { r =>
      val ref = refs(r.d)
      val align =
        if (r.m eq refM) refAlign.getOrElseUpdate(r.d, ref.align(Check.keys(refM, r.d)))
        else ref.align(Check.keys(r.m, r.d))
      val n = ref.wrong(align, r.kappa)
      if (n > 0) failures += s"op $op: ${r.label}: $n of ${ref.kappa.length} κ wrong"
      if (r.hitMaxIters) failures += s"op $op: ${r.label}: stopped at maxIters"
      n > 0 || r.hitMaxIters
    }

  /** Count an operation that threw as ``n`` failed κ arrays. */
  def thrown(op: Int, n: Int, e: Throwable): Unit = {
    attempted += n
    failed += n
    failures += s"op $op: threw $e"
  }
}

/** A benchmark workload: set-up, then operations from input to κ. */
trait Workload {
  /** Proxy graph the workload runs on. */
  def proxy: String
  /** κ arrays one operation produces. */
  def kappasPerOp: Int
  /** Operations run after set-up before timing starts. */
  def warmupOps: Int
  def setup(env: Env, edges: DataFrame, spans: Spans): Unit
  def op(env: Env, spans: Spans): Seq[Result]
  /** Whether a traced run splits the set-up materialization into layers;
    * false where the operations themselves measure those layers.
    */
  def traceSetup: Boolean = true
  /** Per-layer diagnostics a traced run adds after traced operation ``op``;
    * returns further κ arrays to verify and count.
    */
  def traceExtras(env: Env, op: Int): Seq[Result] = Nil
}

/** What one Table 5 engine set runs on: the materialized hypergraphs and
  * the on-the-fly engines over the same graph.
  */
final class Engines(val m: Materialized, val hs: Map[Decomp, Hypergraph]) {
  val truss = new TrussOnTheFly(m.graph)
  val n34 = new Nucleus34OnTheFly(m.graph, m.tri)
}

object Workload {
  def apply(name: String): Workload = name match {
    case "pipeline" => new Pipeline
    case "engine"   => new Engine
    case other      => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  /** AND as every timed operation runs it: ``threads`` workers, without
    * the notification mechanism. A pass that changes nothing then has read
    * the final τ everywhere, so the result is κ whatever the interleaving.
    * With notification the default parallel AND can lose a notification
    * that lands while its target is being computed and stop early with a
    * wrong κ; how often varies from run to run, so it is measured only in
    * the traced run (``core.<d>.kappa_wrong``), never in timed operations.
    */
  def and(h: Hypergraph, threads: Int): IterResult = And.decompose(h, threads = threads, notify = false)

  /** κ arrays of one [[engineSet]]. */
  val EngineSetKappas = 11

  /** The Table 5 engine set: k-core Peeling and AND on the materialized
    * hypergraph; truss and (3,4) peel and AND on the on-the-fly engines;
    * SND for all three; materialized AND for truss and (3,4).
    */
  def engineSet(env: Env, e: Engines, spans: Spans): Seq[Result] = {
    val t = env.threads
    val m = e.m
    def onTheFly(d: Decomp, peel: => Array[Int], and: => IterResult): Seq[Result] = {
      val k = spans.time("peel", s"core.${d.name}.peel_ms")(peel)
      val a = spans.time("and", s"core.${d.name}.and_ms")(and)
      Seq(Result(s"${d.name} on-the-fly peel($t)", d, m, k),
          Result(s"${d.name} on-the-fly and($t)", d, m, a.kappa))
    }
    val core = {
      val h = e.hs(Decomp.core)
      val k = spans.time("peel", "core.core.peel_ms")(Peeling.decompose(h))
      val a = spans.time("and", "core.core.and_ms", "core.core.mat_and_ms")(and(h, t))
      Seq(Result("core Peeling", Decomp.core, m, k), Result(s"core And($t)", Decomp.core, m, a.kappa))
    }
    def materializedAnd(d: Decomp) = Result(s"${d.name} And($t)", d, m,
      spans.time("and", s"core.${d.name}.mat_and_ms")(and(e.hs(d), t)).kappa)
    def snd(d: Decomp) = Result(s"${d.name} Snd($t)", d, m,
      spans.time("snd", s"core.${d.name}.snd_ms")(Snd.decompose(e.hs(d), t)).kappa)
    core ++
      onTheFly(Decomp.truss, e.truss.peel(t), e.truss.and(t, notify = false)) ++
      onTheFly(Decomp.n34, e.n34.peel(t), e.n34.and(t, notify = false)) ++
      Seq(materializedAnd(Decomp.truss), materializedAnd(Decomp.n34)) ++
      Decomp.all.map(snd)
  }

  /** ``rounds`` rounds of [[engineSet]]; peel_s, and_s and snd_s then
    * count the median round once. Repeating keeps the engine times steady
    * next to seconds of Spark work, whose GC and cleanup threads disturb
    * the first round after it.
    */
  def engineRounds(env: Env, e: Engines, rounds: Int, spans: Spans): Seq[Result] =
    (1 to rounds).flatMap { _ =>
      val round = new Spans
      val out = engineSet(env, e, round)
      spans.addRound(round)
      out
    }
}

/** Edges to κ for all three decompositions: Spark enumeration and collect,
  * hypergraph build, then the Table 5 engine set over them, and k-truss
  * once more by the Spark-dataflow SND iterate run to its fixpoint. The two
  * Spark parts use the ``spark`` layer in two ways: a few large joins, then
  * many small shuffle jobs with a localCheckpoint per pass.
  */
final class Pipeline extends Workload {
  val proxy = "ork-x"
  /** Engine set rounds per operation; see [[Workload.engineRounds]]. */
  private val rounds = 3
  val kappasPerOp: Int = rounds * Workload.EngineSetKappas + 1
  val warmupOps = 0
  val maxIters = 1000
  override def traceSetup = false
  private var edges: DataFrame = _

  def setup(env: Env, edges: DataFrame, spans: Spans): Unit = {
    this.edges = edges
    val m = env.materialize(edges, 4, spans)
    val hs = Decomp.all.map(d => d -> env.hypergraph(m, d, spans)).toMap
    env.setReferences(edges, m, 4, hs)
    // An operation takes too long to warm up with whole ones; warm the
    // engines with the same rounds instead, and run SndSpark once on a
    // small graph, so the timed part does not include compiling either.
    Workload.engineRounds(env, new Engines(m, hs), rounds, new Spans)
    val small = NucleusBuilder.materialize(GraphGen.complete(env.spark, 12), 3)
    sndSpark(env, small, NucleusBuilder.hypergraph(small, 2, 3), new Spans)
  }

  def op(env: Env, spans: Spans): Seq[Result] = {
    val m = env.materialize(edges, 4, spans)
    val hs = Decomp.all.map(d => d -> env.hypergraph(m, d, spans)).toMap
    Workload.engineRounds(env, new Engines(m, hs), rounds, spans) :+
      sndSpark(env, m, hs(Decomp.truss), spans)
  }

  /** ``SndSpark`` from the truss hypergraph to κ: membership, iterate, collect. */
  private def sndSpark(env: Env, m: Materialized, h: Hypergraph, spans: Spans): Result = {
    val t0 = System.nanoTime()
    val (kappa, iterations) = env.sparkPhase("snd_spark", spans, "snd") {
      val (df, it) = SndSpark.decompose(env.spark, SndSpark.membershipOf(env.spark, h), h.numR, maxIters)
      val k = new Array[Int](h.numR)
      df.collect().foreach(r => k(r.getLong(0).toInt) = r.getInt(1))
      (k, it)
    }
    val ms = (System.nanoTime() - t0) / 1e6
    if (env.tracing) {
      val passes = iterations + 1
      env.sample("core.snd_spark.iterations", iterations)
      env.sample("core.snd_spark.ms_per_iter", ms / passes)
      env.sample("spark.snd_spark.shuffle_mb_per_iter",
                 env.samples("spark.snd_spark.shuffle_write_mb").last / passes)
    }
    Result("truss SndSpark", Decomp.truss, m, kappa, hitMaxIters = iterations >= maxIters)
  }
}

/** The Table 5 engine set on a resident graph, with no Spark in the timed region. */
final class Engine extends Workload {
  val proxy = "wiki-x"
  val kappasPerOp: Int = Workload.EngineSetKappas
  val warmupOps = 2
  private var e: Engines = _

  def setup(env: Env, edges: DataFrame, spans: Spans): Unit = {
    val m = env.materialize(edges, 4, spans)
    val hs = Decomp.all.map(d => d -> env.hypergraph(m, d, spans)).toMap
    env.setReferences(edges, m, 4, hs)
    e = new Engines(m, hs)
  }

  def op(env: Env, spans: Spans): Seq[Result] = Workload.engineSet(env, e, spans)

  /** Runs of the notifying parallel AND per decomposition and traced operation. */
  private val notifyRuns = 5

  override def traceExtras(env: Env, op: Int): Seq[Result] =
    Decomp.all.map { d =>
      val p = s"core.${d.name}"
      val h = e.hs(d)
      val t = env.threads
      def and(threads: Int, notify: Boolean): IterResult = d match {
        case Decomp.core => And.decompose(h, threads = threads, notify = notify)
        case Decomp.truss => e.truss.and(threads, notify)
        case _ => e.n34.and(threads, notify)
      }
      def timed[T](f: => T): (T, Double) = {
        val t0 = System.nanoTime()
        val out = f
        (out, (System.nanoTime() - t0) / 1e6)
      }
      env.sample(s"$p.tau0_ms", timed(d match {
        case Decomp.core => h.degrees
        case Decomp.truss => e.truss.triangleCounts(t)
        case _ => e.n34.fourCliqueCounts(t)
      })._2)
      val (one, oneMs) = timed(and(1, notify = false))
      env.sample(s"$p.and_1t_ms", oneMs)
      env.sample(s"$p.and_scaling", oneMs / (env.samples(s"$p.and_ms").last * t))
      env.sample(s"$p.num_r", h.numR)
      env.sample(s"$p.num_s", h.numS)
      // The AND the paper times, with notification; racy (see Workload.and),
      // so its wrong κ arrays are counted here and not as failed operations.
      val runs = (1 to notifyRuns).map(_ => timed(and(t, notify = true)))
      val as = runs.map(_._1)
      env.sample(s"$p.and_notify_ms", Main.median(runs.map(_._2)))
      env.sample(s"$p.and_passes", Main.median(as.map(_.passes.toDouble)))
      env.sample(s"$p.and_tau_computations", Main.median(as.map(_.tauComputations.toDouble)))
      env.sample(s"$p.and_active_frac",
                 Main.median(as.map(a => a.tauComputations.toDouble / (h.numR.toDouble * a.passes))))
      env.sample(s"$p.kappa_wrong", env.wrong(op, as.map(a =>
        Result(s"${d.name} And($t) with notification, not counted", d, e.m, a.kappa))).size)
      Result(s"${d.name} and(1)", d, e.m, one.kappa)
    }
}
