package repro.synth

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic stand-ins for the paper's ten evaluation graphs (Table 3).
  *
  * Each proxy is a seeded Chung–Lu power-law graph, optionally with planted
  * cliques for the graphs whose K4/|E| ratio is far above what a pure
  * power-law graph produces (facebook, web-NotreDame, soc-LiveJournal).
  * Sizes are scaled down ~100–1000x so the whole evaluation runs on one
  * machine; DESIGN.md §3–4 documents the substitution and EXPERIMENTS.md
  * records paper vs proxy statistics side by side.
  */
object Proxies {

  /** Generation recipe for one proxy graph.
    *
    * @param name          short proxy name (paper graph abbreviation + "-x")
    * @param paperName     graph name used in the paper
    * @param n             vertex universe size
    * @param mTarget       target edge count before dedup
    * @param gamma         power-law rank exponent (see [[GraphGen.chungLu]])
    * @param plantedCount  number of planted cliques unioned in
    * @param plantedSize   size of each planted clique
    */
  final case class Spec(name: String, paperName: String, n: Long, mTarget: Long,
                        gamma: Double, plantedCount: Int = 0, plantedSize: Int = 0,
                        seed: Long = 42) {
    def generate(spark: SparkSession): DataFrame = {
      val base = GraphGen.chungLu(spark, n, mTarget, gamma, seed)
      val g =
        if (plantedCount > 0)
          GraphGen.withPlantedCliques(spark, base, n, plantedCount, plantedSize, seed + 1)
        else base
      g
    }
  }

  /** All ten proxies, in the paper's Table 3 row order. Parameters were
    * calibrated so triangle/K4 density is high enough to
    * exercise the higher-order decompositions and reproduce Table 5's
    * peeling-vs-AND crossover; planted cliques mimic the locally-dense
    * graphs (facebook, web-NotreDame) whose K4 counts dwarf their size.
    */
  val all: Seq[Spec] = Seq(
    Spec("ask-x",  "as-skitter",        12000, 60000,  0.66, plantedCount = 60, plantedSize = 12),
    Spec("fb-x",   "facebook",            800, 16000,  0.45, plantedCount = 30, plantedSize = 12),
    Spec("slj-x",  "soc-LiveJournal",   20000, 110000, 0.62, plantedCount = 80, plantedSize = 13),
    Spec("ork-x",  "soc-orkut",         15000, 130000, 0.60, plantedCount = 80, plantedSize = 12),
    Spec("sse-x",  "soc-sign-epinions",  4000, 22000,  0.60, plantedCount = 30, plantedSize = 12),
    Spec("hg-x",   "soc-twitter-higgs",  6000, 65000,  0.60, plantedCount = 50, plantedSize = 12),
    Spec("tw-x",   "twitter",            2500, 35000,  0.60, plantedCount = 40, plantedSize = 12),
    Spec("wgo-x",  "web-Google",        10000, 43000,  0.60, plantedCount = 40, plantedSize = 11),
    Spec("wnd-x",  "web-NotreDame",      5000, 15000,  0.60, plantedCount = 20, plantedSize = 18),
    Spec("wiki-x", "wikipedia-200611",  16000, 100000, 0.68, plantedCount = 80, plantedSize = 12),
  )

  def byName(name: String): Spec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown proxy: $name"))

  /** A tiny sub-selection used by fast smoke benches/tests. */
  val smoke: Seq[Spec] = Seq(byName("fb-x"), byName("tw-x"), byName("wnd-x"))
}
