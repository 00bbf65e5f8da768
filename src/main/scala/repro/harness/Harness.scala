package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.synth.Proxies

/** Shared pieces for the per-table harnesses: the three evaluated
  * decompositions, a per-JVM materialization cache (so Table 3/4/5 benches
  * materialize each proxy once), and a median-of-N timer.
  */
object Harness {

  /** One (r,s) instance the paper evaluates. */
  final case class Decomp(label: String, r: Int, s: Int)
  val core = Decomp("k-core", 1, 2)
  val truss = Decomp("k-truss", 2, 3)
  val nuc34 = Decomp("(3,4)", 3, 4)
  val decomps: Seq[Decomp] = Seq(core, truss, nuc34)

  private val matCache =
    scala.collection.concurrent.TrieMap.empty[String, NucleusBuilder.Materialized]

  /** Materialize a proxy graph's cliques once per JVM. */
  def materialized(spark: SparkSession, spec: Proxies.Spec): NucleusBuilder.Materialized =
    matCache.getOrElseUpdate(spec.name,
      NucleusBuilder.materialize(spec.generate(spark), maxS = 4))

  private val hgCache = scala.collection.concurrent.TrieMap.empty[(String, String), Hypergraph]

  /** Hypergraph for (proxy, decomposition), cached per JVM. */
  def hypergraph(spark: SparkSession, spec: Proxies.Spec, d: Decomp): Hypergraph =
    hgCache.getOrElseUpdate((spec.name, d.label),
      NucleusBuilder.hypergraph(materialized(spark, spec), d.r, d.s))

  /** Wall-clock milliseconds of ``f``, the median of ``reps`` ≥ 1 runs. */
  def timeMs(reps: Int)(f: => Unit): Double = {
    require(reps >= 1, s"reps = $reps")
    val ms = Array.fill(reps) {
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e6
    }.sorted
    (ms((reps - 1) / 2) + ms(reps / 2)) / 2
  }

  /** Render aligned columns for the bench logs. */
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val w = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zipWithIndex.map { case (c, i) => c.padTo(w(i), ' ') }.mkString("  ")
    (line(header) +: ("-" * (w.sum + 2 * (w.size - 1))) +: rows.map(line)).mkString("\n")
  }
}
