package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ArrayBuilder

/** Pure-dataflow SND: the update operator 𝒰 iterated to a fixpoint as
  * Pregel-style delta supersteps, one message round (r-clique → s-clique →
  * r-clique) per pass in which only what changed is sent, over a membership
  * and values that stay resident in their partitions.
  *
  * Partition q of P (the session's `defaultParallelism`, one task per core)
  * holds one [[State]]: the r-cliques with rid mod P = q, rid at local row
  * rid / P, and the s-cliques with sid mod P = q, sid at local row sid / P.
  * Each side is a CSR with one slot per member; index k of partition q' is
  * the address k·P + q', so a plain `mod P` routes rids and addresses alike.
  * An s-slot holds its member's rid, the index of the member's r-slot, the
  * member's τ and the last ρ it sent; an r-slot holds its s-slot's address
  * and the last ρ it received, and the r-side keeps τ by row and the rows
  * whose τ the last pass changed.
  *
  * A pass is local [[Snd]]'s Jacobi step, shipping deltas only:
  * {{{
  *   r-side: each r-clique whose τ changed in the previous pass
  *           sends (s-slot address, τ) from each of its slots    partitionBy, no sort
  *   s-side: write τ; in each touched s-clique, each member's
  *           ρ = the least τ of the others [[leastOfOthers]];
  *           send (r-slot address, ρ) where ρ changed            partitionBy, no sort
  *   r-side: write ρ; τ' = H of each touched row [[hIndexes]]
  * }}}
  * The set-up is one job of three unsorted shuffles, each side placed in its
  * rows by counting: the membership goes to its sid's partition (the s-side),
  * each s-slot sends its address to its rid (the r-side; τ₀ = d_s is a row's
  * slot count), and each r-slot sends its index and d_s, packed in one
  * `Long`, to its s-slot. So every s-slot holds τ₀ before pass 1, which has
  * no τ leg and counts every s-clique as touched.
  *
  * Each pass is one job: the new state is locally checkpointed (truncating
  * lineage, so unbounded iteration stays stable) and materialized by the
  * `reduce` of the changed counts; the superseded state is then unpersisted.
  * The s-side's step is a pure function of the state and the pass's τ
  * messages, so the job's last stage repeats it to keep its values instead of
  * persisting a second RDD per pass. Every message is a pair of primitives,
  * which Spark serializes with Kryo.
  *
  * The state is resident arrays, cached `MEMORY_AND_DISK` blocks: the set-up
  * and every pass hold a whole partition in memory, and nothing streams a
  * spillable sort. A side's rows run to its largest local index, so a gap in
  * the sids or rids costs an empty row. Ids and array indices are 32-bit:
  * sids and rids must lie in 0..Int.MaxValue, and every rid below numR.
  */
object SndSpark {

  /** Partition q's s-cliques: row i is sid i·P + q, its slots start(i) until
    * start(i+1) (none for a sid outside the membership). Slot k's member is
    * rid(k), whose r-slot is index back(k) of partition rid(k) mod P; tau(k)
    * is that member's τ, and rho(k) the ρ last sent to it (-1 before pass 1).
    */
  private final class SSide(val start: Array[Int], val rid: Array[Int], val back: Array[Int],
                            val tau: Array[Int], val rho: Array[Int]) extends Serializable

  /** Partition q's r-cliques: row i is rid i·P + q. Slot j sends to the
    * s-slot address to(j) and holds the ρ last received there, rho(j); tau(i)
    * is row i's τ, and `changed` the rows whose τ the last pass changed.
    */
  private final class RSide(val start: Array[Int], val to: Array[Long], val rho: Array[Int],
                            val tau: Array[Int], val changed: Array[Int]) extends Serializable

  /** Both sides of one partition, so a pass checkpoints one RDD. */
  private final class State(val s: SSide, val r: RSide) extends Serializable

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

  /** Counting placement: the starts of a CSR of ``rows`` rows, and the slot
    * of each record m in row row(m), in arrival order within a row.
    */
  private def place(row: Array[Int], rows: Int): (Array[Int], Array[Int]) = {
    val start = new Array[Int](Math.addExact(rows, 1))
    row.foreach(i => start(i + 1) += 1)
    for (i <- 1 to rows) start(i) += start(i - 1)
    val free = java.util.Arrays.copyOf(start, rows)
    val slot = Array.tabulate(row.length) { m => val k = free(row(m)); free(row(m)) += 1; k }
    (start, slot)
  }

  /** The row of CSR ``start`` that holds slot k. */
  private def rowOf(start: Array[Int], k: Int): Int = {
    var (lo, hi) = (0, start.length - 1) // start(lo) <= k < start(hi)
    while (hi - lo > 1) { val mid = (lo + hi) >>> 1; if (start(mid) <= k) lo = mid else hi = mid }
    lo
  }

  /** Writes each message (address k·P + q, x) to v(k); returns the rows of
    * CSR ``start`` that received one, each once.
    */
  private def write(start: Array[Int], v: Array[Int], p: Int, msgs: Iterator[(Long, Int)]): Array[Int] = {
    val seen = new Array[Boolean](start.length - 1)
    val rows = ArrayBuilder.make[Int]
    msgs.foreach { case (a, x) =>
      val k = (a / p).toInt
      v(k) = x
      val i = rowOf(start, k)
      if (!seen(i)) { seen(i) = true; rows += i }
    }
    rows.result()
  }

  /** The s-side kernel. Writes the τ messages to ``tau``; then, in each row
    * that received one (every row when ``all``), gives each member the least
    * τ of the row's *other* members, ties included, from the row's least
    * value, where it sits, and its second least. Keeps in ``rho`` the values
    * that differ from it and returns their slots. Empty rows are skipped;
    * every other row has ≥ 2 slots.
    */
  private[core] def leastOfOthers(start: Array[Int], tau: Array[Int], rho: Array[Int], p: Int,
                                  msgs: Iterator[(Long, Int)], all: Boolean): Array[Int] = {
    val touched = write(start, tau, p, msgs)
    val sent = ArrayBuilder.make[Int]
    (if (all) Iterator.range(0, start.length - 1) else touched.iterator).foreach { i =>
      val end = start(i + 1)
      if (start(i) < end) {
        var at = start(i)
        var second = Int.MaxValue
        var k = at + 1
        while (k < end) {
          if (tau(k) < tau(at)) { second = tau(at); at = k }
          else if (tau(k) < second) second = tau(k)
          k += 1
        }
        val least = tau(at)
        k = start(i)
        while (k < end) {
          val x = if (k == at) second else least
          if (x != rho(k)) { rho(k) = x; sent += k }
          k += 1
        }
      }
    }
    sent.result()
  }

  /** The r-side kernel. Writes the ρ messages to ``rho``; then takes H of
    * each row that received one, by [[HIndexScratch]], keeps it in ``tau``
    * and returns the rows where it differs.
    */
  private[core] def hIndexes(start: Array[Int], rho: Array[Int], tau: Array[Int], p: Int,
                             msgs: Iterator[(Long, Int)]): Array[Int] = {
    val touched = write(start, rho, p, msgs)
    val h = new HIndexScratch(touched.foldLeft(0)((w, i) => math.max(w, start(i + 1) - start(i))))
    val changed = ArrayBuilder.make[Int]
    for (i <- touched) {
      val d = start(i + 1) - start(i)
      System.arraycopy(rho, start(i), h.vals, 0, d)
      val t = h.hIndex(d)
      if (t != tau(i)) { tau(i) = t; changed += i }
    }
    changed.result()
  }

  /** The s-side after a pass's τ messages, and the slots whose ρ changed. */
  private def sStep(s: SSide, p: Int, msgs: Iterator[(Long, Int)], all: Boolean): (SSide, Array[Int]) = {
    val (tau, rho) = (s.tau.clone(), s.rho.clone())
    val sent = leastOfOthers(s.start, tau, rho, p, msgs, all)
    (new SSide(s.start, s.rid, s.back, tau, rho), sent)
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

    // Set-up, one job. The s-side CSR (start, rid), placed by sid / P.
    val sCsr = membership.select(col("sid").cast("long"), col("rid").cast("long")).rdd.map { row =>
      val (sid, rid) = (row.getLong(0), row.getLong(1))
      require(sid >= 0 && sid <= Int.MaxValue, s"SndSpark: sid $sid outside 0..${Int.MaxValue}")
      require(rid >= 0 && rid <= Int.MaxValue, s"SndSpark: rid $rid outside 0..${Int.MaxValue}")
      require(rid < numR, s"SndSpark: rid $rid is not below numR = $numR")
      (sid, rid.toInt)
    }.partitionBy(byMod).mapPartitionsWithIndex { (q, it) =>
      val (rows, rids) = (ArrayBuilder.make[Int], ArrayBuilder.make[Int])
      it.foreach { case (sid, rid) => rows += (sid / p).toInt; rids += rid }
      val (row, r) = (rows.result(), rids.result())
      val (start, slot) = place(row, if (row.isEmpty) 0 else Math.addExact(row.max, 1))
      for (i <- 0 until start.length - 1 if start(i + 1) - start(i) == 1)
        throw new IllegalArgumentException(s"SndSpark: s-clique ${i.toLong * p + q} has fewer than 2 members")
      val rid = new Array[Int](r.length)
      for (m <- r.indices) rid(slot(m)) = r(m)
      Iterator((start, rid))
    }.persist(StorageLevel.MEMORY_AND_DISK)
    // Each s-slot sends its address to its rid: the r-side CSR (start, to),
    // placed by rid / P.
    val rCsr = sCsr.mapPartitionsWithIndex { (q, it) =>
      val rid = it.next()._2
      Iterator.tabulate(rid.length)(k => (rid(k).toLong, k.toLong * p + q))
    }.partitionBy(byMod).mapPartitionsWithIndex { (q, it) =>
      val (rows, tos) = (ArrayBuilder.make[Int], ArrayBuilder.make[Long])
      it.foreach { case (rid, a) => rows += (rid / p).toInt; tos += a }
      val (row, a) = (rows.result(), tos.result())
      val (start, slot) = place(row, if (q < numR) ((numR - 1 - q) / p + 1).toInt else 0)
      val to = new Array[Long](a.length)
      for (m <- a.indices) to(slot(m)) = a(m)
      Iterator((start, to))
    }.persist(StorageLevel.MEMORY_AND_DISK)
    // Each r-slot j sends (j, τ₀ = d_s) to its s-slot, packed as j << 32 | d_s.
    val tau0 = rCsr.mapPartitions { it =>
      val (start, to) = it.next()
      Iterator.range(0, start.length - 1).flatMap { i =>
        val d = start(i + 1) - start(i)
        Iterator.range(start(i), start(i + 1)).map(j => (to(j), (j.toLong << 32) | d))
      }
    }.partitionBy(byMod)
    var state = sCsr.zipPartitions(rCsr, tau0) { (ss, rs, msgs) =>
      val ((sStart, rid), (rStart, to)) = (ss.next(), rs.next())
      val (back, tau) = (new Array[Int](rid.length), new Array[Int](rid.length))
      msgs.foreach { case (a, x) => val k = (a / p).toInt; back(k) = (x >>> 32).toInt; tau(k) = x.toInt }
      val degrees = Array.tabulate(rStart.length - 1)(i => rStart(i + 1) - rStart(i))
      Iterator(new State(new SSide(sStart, rid, back, tau, Array.fill(rid.length)(-1)),
                         new RSide(rStart, to, new Array[Int](to.length), degrees, Array.emptyIntArray)))
    }.localCheckpoint()
    // Pass 1's τ leg: no message, in P partitions to zip with.
    val none = spark.sparkContext.parallelize(Seq.empty[(Long, Int)], p)
    var iterations = 0
    try {
      try state.count() finally { sCsr.unpersist(); rCsr.unpersist() }
      var converged = false
      while (!converged) {
        val all = iterations == 0
        val taus = if (all) none else state.mapPartitions { it =>
          val r = it.next().r
          r.changed.iterator.flatMap(i => Iterator.range(r.start(i), r.start(i + 1)).map(j => (r.to(j), r.tau(i))))
        }.partitionBy(byMod)
        val rhos = state.zipPartitions(taus) { (it, msgs) =>
          val (s, sent) = sStep(it.next().s, p, msgs, all)
          sent.iterator.map(k => (s.back(k).toLong * p + s.rid(k) % p, s.rho(k)))
        }.partitionBy(byMod)
        val next = state.zipPartitions(taus, rhos) { (it, ts, msgs) =>
          val prev = it.next()
          val r = prev.r
          val (rho, tau) = (r.rho.clone(), r.tau.clone())
          val changed = hIndexes(r.start, rho, tau, p, msgs)
          Iterator(new State(sStep(prev.s, p, ts, all)._1, new RSide(r.start, r.to, rho, tau, changed)))
        }.localCheckpoint()
        // Spark logs one WARN per pass as it unpersists the superseded,
        // locally checkpointed state. That is expected: a reliable checkpoint
        // would need a checkpoint directory, and keeping the superseded state
        // would grow the cache by one state a pass (SndSparkSpec allows one
        // persistent RDD after a run). If the job throws, `next` is the state
        // the failure path releases.
        val changed = try next.map(_.r.changed.length.toLong).reduce(_ + _)
                      finally { state.unpersist(); state = next }
        if (onPass != null) onPass(iterations + 1, changed)
        if (changed == 0) converged = true
        else if (iterations == maxIters)
          throw new IllegalStateException(s"SndSpark: no fixpoint within maxIters = $maxIters iterations")
        else iterations += 1
      }
    } catch {
      case e: Throwable => state.unpersist(); throw e
    }
    val kappa = state.mapPartitionsWithIndex { (q, it) =>
      val tau = it.next().r.tau
      Iterator.tabulate(tau.length)(i => (i.toLong * p + q, tau(i)))
    }.toDF("rid", "kappa")
    (kappa, iterations)
  }
}
