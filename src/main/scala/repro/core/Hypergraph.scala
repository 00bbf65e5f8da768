package repro.core

/** Generic substrate for the (r,s) nucleus decomposition.
  *
  * The decomposition only ever sees r-cliques as opaque nodes and s-cliques
  * as fixed-arity hyperedges over them: k-core is (vertices, edges) with
  * arity 2, k-truss is (edges, triangles) with arity 3, and (3,4) is
  * (triangles, four-cliques) with arity 4. It is the materialized
  * [[Incidence]]: peeling, SND, AND and the degree levels read it through
  * [[gather]].
  *
  * @param numR    number of r-clique nodes (0..numR-1)
  * @param arity   r-cliques per s-clique, i.e. C(s, r) — constant per (r,s)
  * @param members flattened member lists: s-clique j owns
  *                ``members(j*arity until (j+1)*arity)``
  */
final class Hypergraph(val numR: Int, val arity: Int, val members: Array[Int]) extends Incidence {
  require(members.length % arity == 0, "members length must be a multiple of arity")

  /** Number of s-clique hyperedges. */
  val numS: Int = members.length / arity

  /** CSR offsets: r-clique r's incidence slots are [incOff(r), incOff(r+1)). */
  val incOff: Array[Int] = new Array[Int](numR + 1)

  /** For each incidence slot, the other members of its s-clique in member
    * order, [[others]] ids per slot: [[gather]] is then one sequential copy.
    */
  private val incOthers = new Array[Int](Math.multiplyExact(members.length, arity - 1))

  {
    var i = 0
    while (i < members.length) { incOff(members(i) + 1) += 1; i += 1 }
    i = 0
    while (i < numR) { incOff(i + 1) += incOff(i); i += 1 }
    val cur = java.util.Arrays.copyOf(incOff, numR)
    var j = 0
    while (j < numS) {
      val base = j * arity
      var p = 0
      while (p < arity) {
        val r = members(base + p)
        val slot = cur(r)
        cur(r) += 1
        var w = slot * (arity - 1)
        var q = 0
        while (q < arity) {
          if (q != p) { incOthers(w) = members(base + q); w += 1 }
          q += 1
        }
        p += 1
      }
      j += 1
    }
  }

  /** S-degree d_s(R): number of s-cliques containing r-clique ``r``. */
  @inline def degree(r: Int): Int = incOff(r + 1) - incOff(r)

  /** Fresh copy of all S-degrees (the τ₀ of the iterative algorithms). */
  def degrees: Array[Int] = Array.tabulate(numR)(degree)

  def others: Int = arity - 1

  /** The stored degrees; counting costs nothing, so ``threads`` is unused. */
  def degreeCounts(threads: Int): Array[Int] = degrees

  def gather(r: Int, buf: Array[Int]): Int = {
    System.arraycopy(incOthers, incOff(r) * others, buf, 0, degree(r) * others)
    degree(r)
  }
}

object Hypergraph {

  /** Build from a list of s-cliques given as member id sequences (all of the
    * same arity). Convenience for tests and tiny graphs.
    */
  def fromSeqs(numR: Int, arity: Int, sCliques: Seq[Seq[Int]]): Hypergraph = {
    val flat = new Array[Int](sCliques.length * arity)
    var j = 0
    sCliques.foreach { sc =>
      require(sc.length == arity, s"s-clique $sc does not have arity $arity")
      require(sc.distinct.length == arity, s"s-clique $sc has repeated members")
      sc.foreach { r => flat(j) = r; j += 1 }
    }
    new Hypergraph(numR, arity, flat)
  }
}
