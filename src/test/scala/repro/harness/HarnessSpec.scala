package repro.harness

import repro.SparkSpec
import repro.synth.Proxies

class HarnessSpec extends SparkSpec {

  // Tiny stand-ins (names reuse paper abbreviations so the formatters can
  // look up paper numbers); cached materialization keeps this suite fast.
  private val tiny = Seq(
    Proxies.Spec("tw-x", "twitter", 300, 1800, 0.45, seed = 1),
    Proxies.Spec("wnd-x", "web-NotreDame", 400, 1200, 0.5, plantedCount = 2, plantedSize = 8, seed = 2),
  )

  test("Table 3 harness produces one row per spec with positive counts") {
    val rows = Table3Harness.run(spark, tiny)
    assert(rows.size == 2)
    assert(rows.forall(r => r.v > 0 && r.e > 0))
    val txt = Table3Harness.format(rows)
    assert(txt.contains("tw-x") && txt.contains("paper|V|"))
  }

  test("Table 4 harness: AND iterations never exceed SND, both below the bound") {
    val rows = Table4Harness.run(spark, tiny)
    assert(rows.size == 6, "2 graphs x 3 decompositions")
    for (r <- rows) {
      assert(r.and <= r.snd, s"$r")
      assert(r.snd <= math.max(0, r.levels - 1), s"$r")
    }
    assert(Table4Harness.format(rows).contains("paper-snd"))
  }

  test("Table 5 harness produces timings and the Table 1 subset filter works") {
    val rows = Table5Harness.run(spark, tiny, threads = 4, reps = 1)
    assert(rows.size == 6)
    assert(rows.forall(r => r.peelingMs > 0 && r.andMs > 0 && r.speedup > 0))
    val t1 = Table5Harness.table1Subset(rows)
    assert(t1.map(_.abbrev).toSet == Set("TW", "WND") && t1.forall(_.decomp == "(3,4)"))
    assert(Table5Harness.format(rows).contains("paper-speedup"))
  }

  test("Convergence harness reports sane metrics") {
    val rows = ConvergenceHarness.run(spark, tiny, decomps = Seq(Harness.core, Harness.truss))
    assert(rows.size == 4)
    for (r <- rows) {
      assert(r.itersTo90 <= r.itersTo99, s"$r")
      assert(r.accAt40 <= 1.0 + 1e-9 && r.accAt10 <= 1.0 + 1e-9)
      assert(r.accAt10 >= r.accAt40 - 1e-9, s"accuracy should not drop as work drains: $r")
    }
    assert(ConvergenceHarness.format(rows).nonEmpty)
    assert(ConvergenceHarness.summarize(rows).contains("k-core"))
  }

  test("timeMs measures elapsed time") {
    val ms = Harness.timeMs(2) { Thread.sleep(5) }
    assert(ms >= 4.0)
    // The median of three runs, not the best: one short run does not count.
    var run = 0
    assert(Harness.timeMs(3) { Thread.sleep(if (run == 0) 1 else 30); run += 1 } >= 29.0)
  }

  test("table formatter aligns columns") {
    val txt = Harness.table(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = txt.linesIterator.toSeq
    assert(lines.length == 4)
    assert(lines.drop(2).forall(_.nonEmpty))
  }
}
