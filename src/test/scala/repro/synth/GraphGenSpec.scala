package repro.synth

import repro.SparkSpec
import repro.graph.GraphOpsSpec.degrees

class GraphGenSpec extends SparkSpec {

  test("chungLu is canonical: no self loops, u < v, distinct") {
    val g = GraphGen.chungLu(spark, 500, 2000, 0.5, seed = 1).collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    assert(g.forall { case (u, v) => u < v })
    assert(g.distinct.length == g.length)
  }

  test("chungLu is deterministic in the seed") {
    def gen(seed: Long) = GraphGen.chungLu(spark, 300, 1000, 0.5, seed).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(gen(7) == gen(7))
    assert(gen(7) != gen(8))
  }

  test("chungLu hits a reasonable fraction of the edge target") {
    val m = GraphGen.chungLu(spark, 2000, 10000, 0.5, seed = 2).count()
    assert(m > 6000 && m <= 10000, s"achieved $m of 10000")
  }

  test("chungLu produces a skewed degree distribution") {
    val g = GraphGen.chungLu(spark, 2000, 10000, 0.55, seed = 3)
    val degs = degrees(g).collect().map(_.getLong(1)).sorted.reverse
    // Top vertex should dominate the median by a wide margin in a power law.
    assert(degs.head >= 10 * degs(degs.length / 2),
           s"max=${degs.head} median=${degs(degs.length / 2)}")
  }

  test("chungLu rejects invalid gamma") {
    intercept[IllegalArgumentException] { GraphGen.chungLu(spark, 10, 10, 1.5) }
  }

  test("erdosRenyi is canonical and deterministic") {
    val a = GraphGen.erdosRenyi(spark, 100, 300, seed = 4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val b = GraphGen.erdosRenyi(spark, 100, 300, seed = 4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(a == b)
    assert(a.forall { case (u, v) => u < v })
  }

  test("complete graph has C(n,2) edges") {
    for (n <- 2 to 6) assert(GraphGen.complete(spark, n).count() == n * (n - 1) / 2)
  }

  test("withPlantedCliques adds the clique edges") {
    val base = GraphGen.erdosRenyi(spark, 200, 100, seed = 5)
    val planted = GraphGen.withPlantedCliques(spark, base, 200, count = 2, size = 8, seed = 6)
    assert(planted.count() >= base.count())
    // A planted clique of size 8 guarantees at least C(8,3) triangles.
    assert(repro.cliques.Triangles.enumerate(planted).count() >= 56)
  }

  test("withPlantedCliques is deterministic") {
    val base = GraphGen.erdosRenyi(spark, 150, 80, seed = 7)
    def gen() = GraphGen.withPlantedCliques(spark, base, 150, 2, 6, seed = 8).collect()
      .map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(gen() == gen())
  }

  test("figure3Toy matches the documented local pairs") {
    val df = GraphGen.figure3Toy(spark).collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted.toSeq
    assert(df == GraphGen.figure3ToyPairs.sorted.toSeq)
  }

  test("proxies: every spec generates a nonempty deterministic graph (smoke subset)") {
    for (spec <- Proxies.smoke) {
      val g1 = spec.generate(spark).count()
      val g2 = spec.generate(spark).count()
      assert(g1 > 0 && g1 == g2, spec.name)
    }
  }

  test("proxies: names are unique and resolvable") {
    assert(Proxies.all.map(_.name).distinct.size == Proxies.all.size)
    assert(Proxies.byName("wnd-x").paperName == "web-NotreDame")
    intercept[RuntimeException] { Proxies.byName("nope") }
  }
}
