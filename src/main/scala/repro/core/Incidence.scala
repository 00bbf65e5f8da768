package repro.core

/** The one access path the decomposition engines need: for an r-clique,
  * the other members of every s-clique containing it.
  *
  * Peeling, SND and AND are written once against this interface. It has
  * three implementations: the materialized CSR [[Hypergraph]], and the
  * on-the-fly [[TrussOnTheFly]] (edge-pair intersection) and
  * [[Nucleus34OnTheFly]] (a merge of the triangle's three edges' triangle
  * lists), which find the s-cliques of an
  * r-clique when asked instead of storing them (the paper's §5 setup).
  *
  * The engines call [[gather]] once per r-clique visit, so the cost of the
  * virtual call is paid per r-clique, never per s-clique.
  */
trait Incidence {

  /** Number of r-cliques (0..numR-1). */
  def numR: Int

  /** Other r-cliques per s-clique, C(s, r) - 1: 1, 2 or 3 for (1,2), (2,3)
    * and (3,4).
    */
  def others: Int

  /** d_s of every r-clique (the τ₀ of SND and AND, the initial degrees of
    * peeling), counted on ``threads`` workers where counting costs work.
    */
  def degreeCounts(threads: Int): Array[Int]

  /** Write the other members of every s-clique ⊇ ``r`` into ``buf``,
    * [[others]] consecutive ids per s-clique, and return the number of
    * s-cliques (d_s(r)). ``buf`` must hold d_s(r) · [[others]] ids.
    */
  def gather(r: Int, buf: Array[Int]): Int

  /** d_s of every r-clique by gathering each on ``threads`` workers, for
    * incidences that store no degrees; ``maxDeg`` must bound every d_s.
    */
  protected def countByGather(threads: Int, maxDeg: Int): Array[Int] = {
    val d = new Array[Int](numR)
    ParallelFor.dynamic(numR, threads)(() => new Array[Int](Math.multiplyExact(maxDeg, others))) {
      (r, buf) => d(r) = gather(r, buf)
    }
    d
  }
}

/** Per-worker buffers for engines over an [[Incidence]]: the gathered
  * s-cliques of the current r-clique and the h-index scratch over them.
  *
  * @param maxDeg largest d_s of any r-clique
  */
private[core] final class Gathered(inc: Incidence, maxDeg: Int) {
  val others: Int = inc.others
  val buf: Array[Int] = new Array[Int](Math.multiplyExact(maxDeg, others))
  private val h = new HIndexScratch(maxDeg)

  /** s-cliques gathered by the last [[load]]. */
  var len = 0

  /** h-index evaluations this worker made; [[And]] counts them here, one
    * writer per count, and sums them after each pass.
    */
  var computations = 0L

  /** Gather the s-cliques of ``r``; returns their count. */
  def load(r: Int): Int = { len = inc.gather(r, buf); len }

  /** H over the loaded s-cliques, each contributing the least ``tau`` of
    * its other members (the update operator 𝒰 of Definition 5).
    */
  def hIndex(tau: Array[Int]): Int = {
    var j = 0
    var k = 0
    while (j < len) {
      var rho = tau(buf(k))
      var i = 1
      while (i < others) { val t = tau(buf(k + i)); if (t < rho) rho = t; i += 1 }
      h.vals(j) = rho
      j += 1
      k += others
    }
    h.hIndex(len)
  }
}
