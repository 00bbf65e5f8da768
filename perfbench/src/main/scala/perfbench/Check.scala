package perfbench

import org.apache.spark.sql.DataFrame
import repro.core.NucleusBuilder.Materialized
import scala.collection.mutable

/** One (r,s) decomposition the paper evaluates, named as in the metric names. */
final case class Decomp(name: String, r: Int, s: Int)

object Decomp {
  val core = Decomp("core", 1, 2)
  val truss = Decomp("truss", 2, 3)
  val n34 = Decomp("n34", 3, 4)
  val all: Seq[Decomp] = Seq(core, truss, n34)
}

/** Id-order-free κ verification.
  *
  * Every r-clique is keyed by its sorted vertex tuple (a vertex, an edge
  * (u,v), a triangle (a,b,c)), so a κ array is compared with the reference
  * whatever order the program assigned ids in; triangle ids, for instance,
  * follow the order of a Spark collect.
  */
object Check {

  /** Key of every r-clique of ``d`` in ``m``, indexed by the program's r-clique id. */
  def keys(m: Materialized, d: Decomp): Array[Long] = {
    val n = m.graph.n.toLong
    require(n < 2000000L, s"vertex count $n too large for a packed triangle key")
    d.r match {
      case 1 => Array.tabulate(m.graph.n)(_.toLong)
      case 2 => m.graph.edges.map { case (u, v) => u * n + v }
      case 3 => Array.tabulate(m.numTriangles) { t =>
        (m.tri(3 * t) * n + m.tri(3 * t + 1)) * n + m.tri(3 * t + 2)
      }
    }
  }

  /** Reference κ of one decomposition, keyed by r-clique. */
  final class Reference(refKeys: Array[Long], val kappa: Array[Int]) {
    require(refKeys.length == kappa.length)
    private val pos = {
      val p = new mutable.LongMap[Int](2 * refKeys.length)
      var i = 0
      while (i < refKeys.length) { p(refKeys(i)) = i; i += 1 }
      p
    }

    /** Reference position of each r-clique of an operation's id space (-1 if unknown). */
    def align(opKeys: Array[Long]): Array[Int] = opKeys.map(k => pos.getOrElse(k, -1))

    /** Number of r-cliques whose κ is wrong, missing, duplicated or unknown. */
    def wrong(align: Array[Int], k: Array[Int]): Int = {
      if (k.length != align.length) return math.max(k.length, kappa.length)
      val seen = new Array[Boolean](kappa.length)
      var bad = math.abs(kappa.length - align.length)
      var i = 0
      while (i < k.length) {
        val p = align(i)
        if (p < 0 || seen(p) || k(i) != kappa(p)) bad += 1
        if (p >= 0) seen(p) = true
        i += 1
      }
      bad
    }
  }

  /** |V|, |E|, |triangles| and |K4| of a graph. */
  final case class Counts(v: Long, e: Long, tri: Long, k4: Long)

  def counts(m: Materialized): Counts =
    Counts(m.graph.n, m.graph.m, m.numTriangles, m.numQuads)

  /** Counts the cliques of a raw edge DataFrame locally, independently
    * of the program's Spark enumeration: dedupe, orient each edge from the
    * lower to the higher (degree, id) rank, then intersect sorted
    * out-neighbour lists.
    */
  def independentCounts(edges: DataFrame): Counts = {
    val pairs = edges.collect().iterator
      .map(r => (r.getAs[Number](0).longValue, r.getAs[Number](1).longValue))
      .filter(p => p._1 != p._2)
      .map(p => if (p._1 < p._2) p else p.swap)
      .toArray.distinct
    val ids = pairs.flatMap(p => Array(p._1, p._2)).distinct
    val idx = new mutable.LongMap[Int](2 * ids.length)
    ids.indices.foreach(i => idx(ids(i)) = i)
    val deg = new Array[Int](ids.length)
    pairs.foreach { case (a, b) => deg(idx(a)) += 1; deg(idx(b)) += 1 }
    def before(x: Int, y: Int) = deg(x) < deg(y) || (deg(x) == deg(y) && ids(x) < ids(y))
    val out = Array.fill(ids.length)(mutable.ArrayBuilder.make[Int])
    pairs.foreach { case (a, b) =>
      val (x, y) = (idx(a), idx(b))
      if (before(x, y)) out(x) += y else out(y) += x
    }
    val adj = out.map { b => val a = b.result(); java.util.Arrays.sort(a); a }

    def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
      val o = mutable.ArrayBuilder.make[Int]
      var i = 0; var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) < b(j)) i += 1
        else if (a(i) > b(j)) j += 1
        else { o += a(i); i += 1; j += 1 }
      }
      o.result()
    }

    var tri = 0L
    var k4 = 0L
    for (u <- adj.indices; v <- adj(u)) {
      val common = intersect(adj(u), adj(v))
      tri += common.length
      common.foreach(w => k4 += intersect(common, adj(w)).length)
    }
    Counts(ids.length, pairs.length, tri, k4)
  }
}
