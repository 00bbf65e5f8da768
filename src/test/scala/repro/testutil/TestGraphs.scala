package repro.testutil

import repro.core.{HIndex, Hypergraph, NucleusBuilder}
import repro.graph.LocalGraph

/** Driver-side graph fixtures and independent brute-force oracles for the
  * engine tests (no SparkSession needed).
  */
object TestGraphs {

  /** Deterministic G(n, p) as canonical (u < v) pairs. */
  def randomGraph(n: Int, p: Double, seed: Long): Array[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    (for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < p)
      yield (u, v)).toArray
  }

  /** Brute-force triangle enumeration (a < b < c). */
  def triangles(pairs: Array[(Int, Int)]): Array[(Int, Int, Int)] = {
    val adj = adjacency(pairs)
    (for {
      (a, b) <- pairs
      c <- adj(b) if c > b && adj(a).contains(c)
    } yield (a, b, c)).sorted
  }

  /** Brute-force K4 enumeration (a < b < c < d). */
  def fourCliques(pairs: Array[(Int, Int)]): Array[(Int, Int, Int, Int)] = {
    val adj = adjacency(pairs)
    (for {
      (a, b, c) <- triangles(pairs)
      d <- adj(c) if d > c && adj(a).contains(d) && adj(b).contains(d)
    } yield (a, b, c, d)).sorted
  }

  private def adjacency(pairs: Array[(Int, Int)]): Map[Int, Set[Int]] =
    pairs.toSeq.flatMap { case (a, b) => Seq(a -> b, b -> a) }
      .groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap.withDefaultValue(Set.empty)

  /** Deterministic Chung–Lu-style power-law graph (vertex i drawn with
    * weight (i+1)^-gamma, ``m`` draws) with ``planted`` cliques of ``k``
    * random vertices unioned in, as canonical pairs. Skewed and locally
    * dense, so κ spans many levels and AND runs many passes: the fixture
    * shape of the parallel stress tests.
    */
  def powerLaw(n: Int, m: Int, gamma: Double, planted: Int, k: Int, seed: Long): Array[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    val cum = (1 to n).scanLeft(0.0)((acc, i) => acc + math.pow(i, -gamma)).toArray
    def draw(): Int = {
      val i = java.util.Arrays.binarySearch(cum, rnd.nextDouble() * cum(n))
      math.min(if (i >= 0) i else -i - 2, n - 1)
    }
    val es = scala.collection.mutable.HashSet.empty[(Int, Int)]
    for (_ <- 0 until m) {
      val u = draw(); val v = draw()
      if (u != v) es += ((math.min(u, v), math.max(u, v)))
    }
    for (_ <- 0 until planted) {
      val vs = Seq.fill(k)(rnd.nextInt(n)).distinct.sorted
      for (i <- vs.indices; j <- i + 1 until vs.size) es += ((vs(i), vs(j)))
    }
    es.toArray.sorted
  }

  /** Build the Materialized structure locally, with the brute-force
    * triangle list, so [[NucleusBuilder]]'s hypergraph assembly is exercised
    * without a SparkSession and apart from its own triangle listing. Vertex
    * ids are used as-is (no degree relabelling) — the decomposition is
    * label-invariant.
    */
  def materialize(pairs: Array[(Int, Int)]): NucleusBuilder.Materialized =
    NucleusBuilder.Materialized(LocalGraph.fromPairs(pairs), triangles(pairs).flatMap(t => Array(t._1, t._2, t._3)))

  /** The (3,4) hypergraph of ``m`` from the brute-force K4 list: each K4's
    * faces (abc, abd, acd, bcd) looked up by vertex triple in ``m.tri``,
    * whatever its order. Shares no code with the on-the-fly merge.
    */
  def nucleus34ByBruteForce(m: NucleusBuilder.Materialized): Hypergraph = {
    val id = (0 until m.numTriangles).map(t => m.tri.slice(3 * t, 3 * t + 3).toSeq -> t).toMap
    Hypergraph.fromSeqs(m.numTriangles, 4, fourCliques(m.graph.edges).toSeq.map { case (a, b, c, d) =>
      Seq(Seq(a, b, c), Seq(a, b, d), Seq(a, c, d), Seq(b, c, d)).map(id)
    })
  }

  /** The s-cliques of the (3,4) hypergraph of ``m`` as vertex tuples,
    * ascending, each the union of its four faces; throws if some s-clique's
    * members are not the four faces of one K4.
    */
  def k4Sets(m: NucleusBuilder.Materialized): Seq[Seq[Int]] =
    NucleusBuilder.nucleus34Hypergraph(m).members.grouped(4).map { faces =>
      val vs = faces.flatMap(t => m.tri.slice(3 * t, 3 * t + 3)).distinct.sorted.toSeq
      require(vs.length == 4 && faces.distinct.length == 4, s"faces ${faces.toSeq} are not the faces of one K4")
      vs
    }.toSeq.sorted(Ordering.Implicits.seqOrdering[Seq, Int])

  /** Brute-force K4s of ``m``'s graph as vertex tuples, ascending. */
  def k4Tuples(m: NucleusBuilder.Materialized): Seq[Seq[Int]] =
    fourCliques(m.graph.edges).toSeq.map(q => Seq(q._1, q._2, q._3, q._4))

  /** ``m`` with its triangles in a seeded random order, as another lister
    * may return them.
    */
  def shuffled(m: NucleusBuilder.Materialized, seed: Long): NucleusBuilder.Materialized = {
    val order = new scala.util.Random(seed).shuffle((0 until m.numTriangles).toVector)
    m.copy(tri = order.flatMap(t => m.tri.slice(3 * t, 3 * t + 3)).toArray)
  }

  /** Hypergraph for (r, s) from raw pairs, all locally. */
  def hypergraph(pairs: Array[(Int, Int)], r: Int, s: Int): Hypergraph =
    NucleusBuilder.hypergraph(materialize(pairs), r, s)

  /** Independent κ_s oracle straight from Definitions 2–3: for every k,
    * compute the maximal sub-hypergraph where each surviving r-clique is
    * contained in >= k surviving s-cliques (an s-clique survives iff all its
    * members survive); survivors have κ_s >= k. It reads only the raw
    * member lists, never the incidence CSR the engines use. O(maxdeg ·
    * iterations · size) — fine for test-sized graphs, and structurally
    * unlike the bucket peeling implementation it validates.
    */
  def kappaByDefinition(h: Hypergraph): Array[Int] = {
    val kappa = new Array[Int](h.numR)
    val sCliques = h.members.grouped(h.arity).toArray
    var k = 1
    var survivors = h.numR > 0
    while (survivors) {
      val alive = Array.fill(h.numR)(true)
      var changed = true
      while (changed) {
        val d = new Array[Int](h.numR)
        for (sc <- sCliques if sc.forall(alive)) sc.foreach(r => d(r) += 1)
        changed = false
        for (r <- 0 until h.numR if alive(r) && d(r) < k) { alive(r) = false; changed = true }
      }
      for (r <- 0 until h.numR if alive(r)) kappa(r) = k
      survivors = alive.contains(true)
      k += 1
    }
    kappa
  }

  /** One SND step straight from Definition 5 on ``h``'s raw member lists:
    * the next τ of r is H over the s-cliques S ∋ r of
    * min{τ(r′) : r′ ∈ S, r′ ≠ r}, by [[HIndex.naive]]. It reads neither the
    * incidence CSR nor the engines' gather buffers.
    */
  def sndStep(h: Hypergraph, tau: Array[Int]): Array[Int] = {
    val rhos = Array.fill(h.numR)(scala.collection.mutable.ArrayBuffer.empty[Int])
    for (sc <- h.members.grouped(h.arity); p <- sc.indices)
      rhos(sc(p)) += sc.indices.filter(_ != p).map(q => tau(sc(q))).min
    rhos.map(b => HIndex.naive(b.toSeq))
  }

  /** The paper's Figure 3/5 toy graph as pairs (a=0 … f=5). */
  val fig3: Array[(Int, Int)] = repro.synth.GraphGen.figure3ToyPairs

  /** Complete graph K_n as pairs. */
  def complete(n: Int): Array[(Int, Int)] =
    (for (u <- 0 until n; v <- u + 1 until n) yield (u, v)).toArray
}
