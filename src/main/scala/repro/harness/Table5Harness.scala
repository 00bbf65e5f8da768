package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{And, NucleusBuilder, Peeling}
import repro.synth.Proxies

/** Table 5 — decomposition runtime: sequential peeling versus parallel AND.
  *
  * Follows the paper's measurement setup: s-cliques are *not* materialized —
  * the truss and (3,4) engines recompute each r-clique's s-clique
  * participation on the fly, and the τ₀/d_s counting phase is parallelized
  * for peeling as well ("for a fair comparison"); the remaining peel loop is
  * inherently sequential while AND's passes use all threads. For k-core the
  * graph itself is the structure, so the materialized engines apply.
  * Table 1 of the paper is the (3,4) subset {TW, WND, WIKI} of these rows.
  * Every row checks κ(AND) = κ(peeling) before it records a time; each
  * time is the median of ``reps`` runs.
  */
object Table5Harness {

  final case class Row(decomp: String, graph: String, abbrev: String,
                       peelingMs: Double, andMs: Double) {
    def speedup: Double = peelingMs / andMs
  }

  def run(spark: SparkSession, specs: Seq[Proxies.Spec] = Proxies.all,
          decomps: Seq[Harness.Decomp] = Harness.decomps,
          threads: Int = Runtime.getRuntime.availableProcessors(),
          reps: Int = 3): Seq[Row] =
    for (d <- decomps; spec <- specs) yield {
      val inc = NucleusBuilder.onTheFly(Harness.materialized(spark, spec), d.r, d.s)
      // The checked runs double as JIT warm-up for both timed paths.
      val kappa = Peeling.decompose(inc, threads)
      if (!java.util.Arrays.equals(And.decompose(inc, threads = threads).kappa, kappa))
        throw new IllegalStateException(s"${d.label} on ${spec.name}: AND and peeling disagree on κ")
      Row(d.label, spec.name, PaperNumbers.abbrev(spec.name),
          Harness.timeMs(reps)(Peeling.decompose(inc, threads)),
          Harness.timeMs(reps)(And.decompose(inc, threads = threads)))
    }

  def format(rows: Seq[Row]): String = {
    val header = Seq("decomp", "graph", "peeling-ms", "and-ms", "speedup",
                     "paper-peeling-s", "paper-and-s", "paper-speedup")
    Harness.table(header, rows.map { r =>
      val p = PaperNumbers.table5((r.decomp, r.abbrev))
      Seq(r.decomp, r.graph, f"${r.peelingMs}%.2f", f"${r.andMs}%.2f", f"${r.speedup}%.2f",
          p.peelingSec.toString, p.andSec.toString, p.speedup.toString)
    })
  }

  /** The Table 1 subset: (3,4) rows for twitter, web-NotreDame, wikipedia. */
  def table1Subset(rows: Seq[Row]): Seq[Row] =
    rows.filter(r => r.decomp == "(3,4)" && Set("TW", "WND", "WIKI").contains(r.abbrev))
}
