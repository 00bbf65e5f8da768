package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.{And, Peeling}
import repro.metrics.{Accuracy, KendallTau}
import repro.synth.Proxies

/** §5.2 of the paper (the prose behind Figures 1, 6 and 7): how fast the τ
  * indices approach κ_s. For every (graph, decomposition) it runs sequential
  * AND, reads τ in place at every pass barrier, and reports
  *  - iterations until the strict Kendall-Tau similarity vs κ reaches
  *    0.90 and 0.99 (paper averages: 5.4/7.7/6 and 19.3/17.7/12.5), and
  *  - the accuracy (fraction of converged τ) at the first pass where the
  *    active-r-clique ratio drops below 40% and 10% (paper: ~83/82/86% and
  *    ~99%).
  */
object ConvergenceHarness {

  final case class Row(decomp: String, graph: String,
                       itersTo90: Int, itersTo99: Int, totalIters: Int,
                       accAt40: Double, accAt10: Double)

  def run(spark: SparkSession, specs: Seq[Proxies.Spec] = Proxies.all,
          decomps: Seq[Harness.Decomp] = Harness.decomps): Seq[Row] =
    for (d <- decomps; spec <- specs) yield {
      val h = Harness.hypergraph(spark, spec, d)
      val kappa = Peeling.decompose(h)
      val kts = scala.collection.mutable.ArrayBuffer.empty[Double]
      val accs = scala.collection.mutable.ArrayBuffer.empty[Double]
      val res = And.decompose(h, onIteration = (_, tau) => {
        kts += KendallTau.strict(tau, kappa)
        accs += Accuracy.of(tau, kappa)
      })
      def firstAtLeast(xs: Seq[Double], t: Double): Int = {
        val i = xs.indexWhere(_ >= t)
        if (i < 0) xs.length - 1 else i
      }
      // activeTrace(p) is the work of pass p+1, whose resulting τ gives
      // accs(p+1); report accuracy right after the first pass whose
      // active ratio fell below the threshold.
      def accBelow(ratio: Double): Double = {
        val i = res.activeTrace.indexWhere(_.toDouble / math.max(1, h.numR) < ratio)
        if (i < 0) accs.last else accs(math.min(i + 1, accs.length - 1))
      }
      Row(d.label, spec.name,
          firstAtLeast(kts.toSeq, 0.90), firstAtLeast(kts.toSeq, 0.99), res.iterations,
          accBelow(0.40), accBelow(0.10))
    }

  def format(rows: Seq[Row]): String = {
    val header = Seq("decomp", "graph", "it->KT90", "it->KT99", "iters",
                     "acc@active<40%", "acc@active<10%")
    Harness.table(header, rows.map { r =>
      Seq(r.decomp, r.graph, r.itersTo90.toString, r.itersTo99.toString,
          r.totalIters.toString, f"${r.accAt40 * 100}%.1f%%", f"${r.accAt10 * 100}%.1f%%")
    })
  }

  /** Per-decomposition averages, comparable to the paper's prose numbers. */
  def summarize(rows: Seq[Row]): String = {
    val header = Seq("decomp", "avg-it->KT90", "avg-it->KT99",
                     "avg-acc@<40%", "avg-acc@<10%",
                     "paper-it90", "paper-it99", "paper-acc40", "paper-acc10")
    val paper = Map(
      "k-core" -> (5.4, 19.3, 83.0, 99.0),
      "k-truss" -> (7.7, 17.7, 82.0, 99.0),
      "(3,4)" -> (6.0, 12.5, 86.0, 99.0),
    )
    Harness.table(header, rows.groupBy(_.decomp).toSeq.sortBy(_._1).map { case (d, rs) =>
      def avg(f: Row => Double) = rs.map(f).sum / rs.size
      val p = paper(d)
      Seq(d, f"${avg(_.itersTo90)}%.1f", f"${avg(_.itersTo99)}%.1f",
          f"${avg(_.accAt40) * 100}%.1f%%", f"${avg(_.accAt10) * 100}%.1f%%",
          p._1.toString, p._2.toString, s"${p._3}%", s"${p._4}%")
    })
  }
}
