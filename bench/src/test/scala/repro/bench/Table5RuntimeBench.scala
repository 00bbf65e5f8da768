package repro.bench

import repro.SparkSpec
import repro.harness.Table5Harness
import repro.synth.Proxies

/** Reproduces Table 5 (and Table 1, its (3,4) subset): decomposition
  * runtime of sequential peeling vs parallel AND over the same on-the-fly
  * incidence, each the median of 3 timed runs.
  *
  * Shape assertions follow the paper: peeling wins k-core (tiny work per
  * vertex, AND pays multi-pass overhead), while AND wins the heavier
  * higher-order decompositions on average.
  */
class Table5RuntimeBench extends SparkSpec {

  test("Table 5 + Table 1: peeling vs parallel AND runtimes") {
    val threads = math.min(16, Runtime.getRuntime.availableProcessors())
    val rows = Table5Harness.run(spark, Proxies.all, threads = threads, reps = 3)
    println()
    println(s"=== Table 5: decomposition runtime, peeling vs AND ($threads threads) ===")
    println(Table5Harness.format(rows))
    println()
    println("=== Table 1 subset: (3,4) on TW / WND / WIKI ===")
    println(Table5Harness.format(Table5Harness.table1Subset(rows)))
    println()
    assert(rows.size == Proxies.all.size * 3)
    assert(rows.forall(r => r.peelingMs > 0 && r.andMs > 0))

    def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
    val coreSp = geomean(rows.filter(_.decomp == "k-core").map(_.speedup))
    val trussSp = geomean(rows.filter(_.decomp == "k-truss").map(_.speedup))
    val nucSp = geomean(rows.filter(_.decomp == "(3,4)").map(_.speedup))
    println(f"geomean speedups: k-core $coreSp%.2f, k-truss $trussSp%.2f, (3,4) $nucSp%.2f")
    // Paper's shape: k-core favours peeling; the higher-order
    // decompositions favour parallel AND and increasingly so with order.
    assert(coreSp < 1.5, f"k-core: expected peeling to be competitive, AND won $coreSp%.2fx")
    assert(nucSp > 1.0, f"(3,4): expected AND to win, got $nucSp%.2fx")
    assert(nucSp > coreSp, "speedup should grow with decomposition order")
  }
}
