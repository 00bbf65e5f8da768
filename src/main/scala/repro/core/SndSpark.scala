package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ArrayBuilder

/** Pure-dataflow SND: the update operator 𝒰 iterated to a fixpoint as
  * Pregel-style supersteps, one message round (r-clique → s-clique →
  * r-clique) per pass, over a membership that stays resident in its
  * partitions and is routed once.
  *
  * Partition q of P (the session's `defaultParallelism`, one task per core)
  * holds the r-cliques with rid mod P = q, r-clique rid at local index
  * rid / P, and the s-cliques with sid mod P = q. Each side is a [[Side]]: a
  * CSR of its rows' slots. An s-side slot holds its member's rid; an r-side
  * slot holds the address of its s-side slot (index k of partition q' is the
  * address k·P + q'), so a plain `mod P` routes rids and addresses alike.
  * Slots are addressed only where the kernel needs them: [[leastOfOthers]]
  * needs each τ at its own s-slot, while H is order-free, so ρ is sent to
  * its rid and a per-row cursor places it [[receiveRows]]. The set-up sorts
  * the membership by sid into the s-side CSR, and each s-slot's address,
  * sorted by rid, into the r-side CSR (both sorts can spill); τ₀ = d_s is an
  * r-clique's slot count. Every pass then ships values only:
  * {{{
  *   r-side: each slot sends (address, τ of its r-clique)     partitionBy, no sort
  *   s-side: scatter τ; each member reads ρ = the least τ of
  *           the others [[leastOfOthers]] and sends (rid, ρ)  partitionBy, no sort
  *   r-side: place ρ in its row; τ' = H of each row's ρ's      [[hIndexes]]
  * }}}
  * The new [[State]] shares the r-side's routes and holds a new τ and its
  * changed count. Each pass is one job: the state is locally checkpointed
  * (truncating lineage, so unbounded iteration stays stable) and
  * materialized by the `reduce` of the changed counts; the superseded state
  * is then unpersisted. Both shuffles move (Long, Int) pairs, which Spark
  * serializes with Kryo.
  *
  * The sides are resident arrays: cached `MEMORY_AND_DISK` blocks, as the
  * checkpointed state is, so a pass holds a whole partition in memory and no
  * pass streams a spillable sort. Ids and array indices are 32-bit: sids and
  * rids must lie in 0..Int.MaxValue, and every rid below numR.
  */
object SndSpark {

  /** One side of the membership in one partition: row i's slots are
    * start(i) until start(i+1), and slot j sends to key to(j) on the other
    * side (an s-slot to its member's rid, an r-slot to its s-slot's address).
    */
  private final class Side(val start: Array[Int], val to: Array[Long]) extends Serializable

  /** The r-side after a pass: its routes, τ by local index, and how many
    * τ the pass changed.
    */
  private final class State(val r: Side, val tau: Array[Int], val changed: Long) extends Serializable

  /** Routes a key (an id or an address) to partition key mod P. */
  private final class ModPartitioner(p: Int) extends Partitioner {
    def numPartitions: Int = p
    def getPartition(key: Any): Int = (key.asInstanceOf[Long] % p).toInt
  }

  /** Membership DataFrame (sid, rid) of a local [[Hypergraph]], for tests
    * and benchmarks that want to drive the dataflow engine from the same input:
    * row i of `spark.range` is member i of `h.members`, read from one
    * broadcast of the array, so no row is built on the driver.
    */
  def membershipOf(spark: SparkSession, h: Hypergraph): DataFrame = {
    import spark.implicits._
    val members = spark.sparkContext.broadcast(h.members)
    val arity = h.arity
    spark.range(h.members.length.toLong)
      .map(i => (i / arity, members.value(i.toInt).toLong))
      .toDF("sid", "rid")
  }

  /** The s-side kernel: turns each member's τ in ``v`` into the least τ of
    * the row's *other* members, ties included, from the row's least value,
    * where it sits, and its second least. Every row has ≥ 2 slots.
    */
  private[core] def leastOfOthers(start: Array[Int], v: Array[Int]): Unit = {
    var i = 0
    while (i + 1 < start.length) {
      var at = start(i)
      var second = Int.MaxValue
      var k = at + 1
      while (k < start(i + 1)) {
        if (v(k) < v(at)) { second = v(at); at = k }
        else if (v(k) < second) second = v(k)
        k += 1
      }
      val least = v(at)
      k = start(i)
      while (k < start(i + 1)) { v(k) = if (k == at) second else least; k += 1 }
      i += 1
    }
  }

  /** The r-side kernel: H of each row's ρ's, by [[HIndexScratch]]. */
  private[core] def hIndexes(start: Array[Int], rho: Array[Int]): Array[Int] = {
    val n = start.length - 1
    var widest = 0
    for (i <- 0 until n) widest = math.max(widest, start(i + 1) - start(i))
    val h = new HIndexScratch(widest)
    Array.tabulate(n) { i =>
      val d = start(i + 1) - start(i)
      System.arraycopy(rho, start(i), h.vals, 0, d)
      h.hIndex(d)
    }
  }

  /** Slot j's message (to(j), v(j)), made as it is read. */
  private def send(to: Array[Long], v: Array[Int]): Iterator[(Long, Int)] =
    Iterator.tabulate(to.length)(j => (to(j), v(j)))

  /** Slot j of side partition q sends its own address j·P + q to to(j). */
  private def addresses(s: Side, q: Int, p: Int): Iterator[(Long, Long)] =
    Iterator.tabulate(s.to.length)(j => (s.to(j), j.toLong * p + q))

  /** The values of ``n`` slots, each scattered to the index k of its
    * address k·P + q.
    */
  private def receive(n: Int, p: Int, msgs: Iterator[(Long, Int)]): Array[Int] = {
    val v = new Array[Int](n)
    msgs.foreach { case (a, x) => v((a / p).toInt) = x }
    v
  }

  /** The values of the rows of CSR ``start``, each message (rid, x) placed
    * at the next free slot of row rid / P, in the order the messages come.
    */
  private[core] def receiveRows(start: Array[Int], p: Int, msgs: Iterator[(Long, Int)]): Array[Int] = {
    val free = java.util.Arrays.copyOf(start, start.length - 1)
    val v = new Array[Int](start.last)
    msgs.foreach { case (rid, x) => val i = (rid / p).toInt; v(free(i)) = x; free(i) += 1 }
    v
  }

  /** Run to convergence.
    *
    * @param membership (sid, rid) rows; every s-clique must have >= 2 members
    * @param numR       size of the r-clique universe (rids are 0..numR-1;
    *                   rids absent from ``membership`` have κ = 0)
    * @param maxIters   most passes with a change; a run that needs more
    *                   throws instead of returning an unconverged τ
    * @param onPass     optional observer called after every pass with
    *                   (pass number starting at 1, r-cliques whose τ changed)
    * @return (DataFrame (rid, kappa), iterations-with-change)
    * @throws IllegalArgumentException naming the id: at once on numR >
    *         Int.MaxValue; from the set-up job on a sid or rid outside
    *         0..Int.MaxValue, a rid >= numR or an s-clique with fewer than
    *         2 members
    */
  def decompose(spark: SparkSession, membership: DataFrame, numR: Long,
                maxIters: Int = 1000, onPass: (Int, Long) => Unit = null): (DataFrame, Int) = {
    import spark.implicits._
    require(numR <= Int.MaxValue, s"SndSpark: numR = $numR exceeds ${Int.MaxValue}")
    val p = spark.sparkContext.defaultParallelism
    val byMod = new ModPartitioner(p)

    // Set-up, one job. The s-side CSR by sid, each slot holding its
    // member's rid.
    val sSide = membership.select(col("sid").cast("long"), col("rid").cast("long")).rdd.map { row =>
      val (sid, rid) = (row.getLong(0), row.getLong(1))
      require(sid >= 0 && sid <= Int.MaxValue, s"SndSpark: sid $sid outside 0..${Int.MaxValue}")
      require(rid >= 0 && rid <= Int.MaxValue, s"SndSpark: rid $rid outside 0..${Int.MaxValue}")
      require(rid < numR, s"SndSpark: rid $rid is not below numR = $numR")
      (sid, rid)
    }.repartitionAndSortWithinPartitions(byMod).mapPartitions { it =>
      val in = it.buffered
      val start = ArrayBuilder.make[Int]
      val rids = ArrayBuilder.make[Long]
      var k = 0
      while (in.hasNext) {
        val (sid, first) = (in.head._1, k)
        start += k
        while (in.hasNext && in.head._1 == sid) { rids += in.next()._2; k += 1 }
        if (k - first < 2)
          throw new IllegalArgumentException(s"SndSpark: s-clique $sid has fewer than 2 members")
      }
      start += k
      Iterator(new Side(start.result(), rids.result()))
    }.persist(StorageLevel.MEMORY_AND_DISK)
    // Each s-slot sends its address to its rid: sorted by rid, the r-side
    // CSR, each slot holding its s-slot's address; τ₀ = d_s.
    var state = sSide.mapPartitionsWithIndex((q, it) => addresses(it.next(), q, p))
      .repartitionAndSortWithinPartitions(byMod).mapPartitionsWithIndex { (q, it) =>
        val start = new Array[Int](if (q < numR) ((numR - 1 - q) / p + 2).toInt else 1)
        val to = ArrayBuilder.make[Long]
        it.foreach { case (rid, a) => start((rid / p).toInt + 1) += 1; to += a }
        for (i <- 1 until start.length) start(i) += start(i - 1)
        val degrees = Array.tabulate(start.length - 1)(i => start(i + 1) - start(i))
        Iterator(new State(new Side(start, to.result()), degrees, 0))
      }.localCheckpoint()
    var iterations = 0
    try {
      state.count()
      var converged = false
      while (!converged) {
        val taus = state.mapPartitions { it =>
          val s = it.next()
          val v = new Array[Int](s.r.to.length)
          for (i <- s.tau.indices) java.util.Arrays.fill(v, s.r.start(i), s.r.start(i + 1), s.tau(i))
          send(s.r.to, v)
        }.partitionBy(byMod)
        val rhos = sSide.zipPartitions(taus) { (it, msgs) =>
          val s = it.next()
          val v = receive(s.to.length, p, msgs)
          leastOfOthers(s.start, v)
          send(s.to, v)
        }.partitionBy(byMod)
        val next = state.zipPartitions(rhos) { (it, msgs) =>
          val s = it.next()
          val tau = hIndexes(s.r.start, receiveRows(s.r.start, p, msgs))
          Iterator(new State(s.r, tau, tau.indices.count(i => tau(i) != s.tau(i))))
        }.localCheckpoint()
        val changed = next.map(_.changed).reduce(_ + _)
        // Spark logs one WARN here per pass, as it does for every locally
        // checkpointed RDD it unpersists. That is expected: a reliable
        // checkpoint would need a checkpoint directory, and keeping the
        // superseded state would grow the cache by one state a pass
        // (SndSparkSpec allows one persistent RDD after a run).
        state.unpersist()
        state = next
        if (onPass != null) onPass(iterations + 1, changed)
        if (changed == 0) converged = true
        else if (iterations == maxIters)
          throw new IllegalStateException(s"SndSpark: no fixpoint within maxIters = $maxIters iterations")
        else iterations += 1
      }
    } catch {
      case e: Throwable => state.unpersist(); throw e
    } finally sSide.unpersist()
    val kappa = state.mapPartitionsWithIndex { (q, it) =>
      val s = it.next()
      Iterator.tabulate(s.tau.length)(i => (i.toLong * p + q, s.tau(i)))
    }.toDF("rid", "kappa")
    (kappa, iterations)
  }
}
