package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ArrayBuilder

/** Pure-dataflow SND: the update operator 𝒰 iterated to a fixpoint as
  * owner-computes supersteps over partition state that stays resident and
  * keeps copies of the neighbours' τ (the partition state of Giraph++, Tian
  * et al., PVLDB 7(3), 2013; the mirrors of PowerGraph, Gonzalez et al.,
  * OSDI 2012).
  *
  * Partition q of P (the session's `defaultParallelism`, one task per core)
  * holds one [[State]]. It *owns* the r-cliques with rid mod P = q, at local
  * row rid / P, and keeps every s-clique with an owned member, with all of
  * that s-clique's members. A member that another partition owns is a
  * *ghost*: a local row holding a copy of that r-clique's τ. So an s-clique
  * is stored in at most min(s, P) partitions.
  *
  * A pass is local [[Snd]]'s Jacobi step (Definition 5), shipping deltas only:
  * {{{
  *   map stage:    each owned r-clique whose τ changed in the previous
  *                 pass (every one in pass 1) sends (rid·P + q', τ) once
  *                 to each other partition q' that holds a ghost of it  partitionBy, no sort
  *   result stage: write the ghost τ's; take H of each owned row that
  *                 shares an s-clique with a changed r-clique [[step]]
  * }}}
  * The set-up is two unsorted shuffles that run in pass 1's job. The
  * membership goes to its sid's partition, where one primitive sort of packed
  * (sid, rid) `Long`s groups it by sid, so no array is sized by the largest
  * sid. Then each s-clique's member list goes to each distinct partition that
  * owns one of its members, which builds its state [[build]] (τ₀ = d_s of an
  * owned row is its s-clique count) and caches it in the stage that sends
  * pass 1's messages.
  *
  * Each pass is one job: the new state is locally checkpointed (truncating
  * lineage, so unbounded iteration stays stable) and materialized by the
  * `reduce` of the changed counts; the superseded state is then unpersisted.
  * Every message is a pair of a primitive and a primitive or primitive array,
  * which Spark serializes with Kryo.
  *
  * The state is resident arrays, cached `MEMORY_AND_DISK` blocks: the set-up
  * and every pass hold a whole partition in memory, and nothing streams a
  * spillable sort. Ids and array indices are 32-bit: sids and rids must lie
  * in 0..Int.MaxValue, and every rid below numR.
  */
object SndSpark {

  /** Partition q's state. Local row i < [[owned]] is rid i·P + q; row
    * owned + g is the ghost rid ghost(g), ``ghost`` ascending. Local
    * s-clique j has the member rows member(start(j) until start(j+1)), and
    * row i is a member of the s-cliques in(inStart(i) until inStart(i+1)).
    * tau(i) is row i's τ, and ``changed`` the owned rows whose τ the last
    * pass changed (every owned row before pass 1).
    */
  private[core] final class State(val start: Array[Int], val member: Array[Int], val inStart: Array[Int],
                                  val in: Array[Int], val ghost: Array[Int], val tau: Array[Int],
                                  val changed: Array[Int]) extends Serializable {
    def owned: Int = tau.length - ghost.length

    /** Calls ``f`` on each member row of each s-clique of row i, i included. */
    def coMembers(i: Int)(f: Int => Unit): Unit =
      for (x <- inStart(i) until inStart(i + 1); k <- start(in(x)) until start(in(x) + 1)) f(member(k))
  }

  /** Routes a key to partition key mod P. */
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

  /** Partition q's state before pass 1, from the member rids of the
    * s-cliques it holds: τ₀ of an owned row is its s-clique count d_s.
    */
  private[core] def build(p: Int, q: Int, numR: Long, cliques: Iterator[Array[Int]]): State = {
    val lists = cliques.toArray
    val owned = if (q < numR) ((numR - 1 - q) / p + 1).toInt else 0
    val start = lists.scanLeft(0)(_ + _.length)
    val rids = lists.flatten
    val ghost = rids.filter(_ % p != q).sorted
    var g = 0 // ``ghost`` without repeats is ghost(0 until g)
    for (r <- ghost if g == 0 || ghost(g - 1) != r) { ghost(g) = r; g += 1 }
    val ghosts = java.util.Arrays.copyOf(ghost, g)
    val member = rids.map(r => if (r % p == q) r / p else owned + java.util.Arrays.binarySearch(ghosts, r))
    val (inStart, slot) = place(member, owned + g)
    val in = new Array[Int](member.length)
    for (j <- lists.indices; k <- start(j) until start(j + 1)) in(slot(k)) = j
    val tau = Array.tabulate(owned + g)(i => if (i < owned) inStart(i + 1) - inStart(i) else 0)
    new State(start, member, inStart, in, ghosts, tau, Array.range(0, owned))
  }

  /** The map stage's messages from partition q's state: each owned row the
    * last pass changed sends (rid·P + q', τ) once to each other partition q'
    * that owns one of its co-members.
    */
  private def sends(s: State, p: Int, q: Int): Iterator[(Long, Int)] = {
    val owned = s.owned
    val last = Array.fill(p)(-1) // last(q') = the last row that sent to q'
    s.changed.iterator.flatMap { i =>
      val to = ArrayBuilder.make[Int]
      s.coMembers(i) { m =>
        if (m >= owned) {
          val t = s.ghost(m - owned) % p
          if (last(t) != i) { last(t) = i; to += t }
        }
      }
      val rid = i.toLong * p + q
      to.result().iterator.map(t => (rid * p + t, s.tau(i)))
    }
  }

  /** The pass kernel. Writes the messages (rid·P + q, τ) to their ghosts.
    * Then each owned row that shares an s-clique with a changed row (an owned
    * row of ``s.changed`` or a ghost just written) is touched: its new τ is H
    * over its s-cliques of the least τ of their other members, by
    * [[HIndexScratch]]. Every H reads the pre-pass τ's, and the new τ's are
    * written once all are taken. Returns the next state, whose ``changed``
    * are the touched rows whose τ moved, and the touched rows.
    */
  private[core] def step(s: State, p: Int, msgs: Iterator[(Long, Int)]): (State, Array[Int]) = {
    val (owned, tau) = (s.owned, s.tau.clone())
    val marked = new Array[Boolean](owned)
    val touched = ArrayBuilder.make[Int]
    def touch(c: Int): Unit =
      s.coMembers(c)(m => if (m < owned && m != c && !marked(m)) { marked(m) = true; touched += m })
    s.changed.foreach(touch)
    msgs.foreach { case (a, t) =>
      val g = owned + java.util.Arrays.binarySearch(s.ghost, (a / p).toInt)
      tau(g) = t
      touch(g)
    }
    val rows = touched.result()
    val h = new HIndexScratch(rows.foldLeft(0)((w, i) => math.max(w, s.inStart(i + 1) - s.inStart(i))))
    val next = rows.map { i =>
      for (x <- s.inStart(i) until s.inStart(i + 1)) {
        var least = Int.MaxValue
        var k = s.start(s.in(x))
        while (k < s.start(s.in(x) + 1)) {
          if (s.member(k) != i) least = math.min(least, tau(s.member(k)))
          k += 1
        }
        h.vals(x - s.inStart(i)) = least
      }
      h.hIndex(s.inStart(i + 1) - s.inStart(i))
    }
    val changed = ArrayBuilder.make[Int]
    for (x <- rows.indices if next(x) != tau(rows(x))) { tau(rows(x)) = next(x); changed += rows(x) }
    (new State(s.start, s.member, s.inStart, s.in, s.ghost, tau, changed.result()), rows)
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
    *         Int.MaxValue; from the first pass's job on a sid or rid outside
    *         0..Int.MaxValue, a rid >= numR or an s-clique with fewer than
    *         2 members
    */
  def decompose(spark: SparkSession, membership: DataFrame, numR: Long,
                maxIters: Int = 1000, onPass: (Int, Long) => Unit = null): (DataFrame, Int) = {
    import spark.implicits._
    require(numR <= Int.MaxValue, s"SndSpark: numR = $numR exceeds ${Int.MaxValue}")
    val p = spark.sparkContext.defaultParallelism
    val byMod = new ModPartitioner(p)

    // Set-up, run by pass 1's job. Each s-clique, grouped at its sid's
    // partition, sends its member rids to each distinct partition that owns
    // one of them.
    val cliques = membership.select(col("sid").cast("long"), col("rid").cast("long")).rdd.map { row =>
      val (sid, rid) = (row.getLong(0), row.getLong(1))
      require(sid >= 0 && sid <= Int.MaxValue, s"SndSpark: sid $sid outside 0..${Int.MaxValue}")
      require(rid >= 0 && rid <= Int.MaxValue, s"SndSpark: rid $rid outside 0..${Int.MaxValue}")
      require(rid < numR, s"SndSpark: rid $rid is not below numR = $numR")
      (sid, rid.toInt)
    }.partitionBy(byMod).mapPartitions { it =>
      val sidRid = it.map { case (sid, rid) => sid << 32 | rid }.toArray
      java.util.Arrays.sort(sidRid)
      val ends = (1 to sidRid.length).filter(e => e == sidRid.length || sidRid(e) >>> 32 != sidRid(e - 1) >>> 32)
      val last = Array.fill(p)(-1) // last(q') = the first slot of the last s-clique sent to q'
      (0 +: ends).iterator.zip(ends.iterator).flatMap { case (b, e) =>
        if (e - b < 2)
          throw new IllegalArgumentException(s"SndSpark: s-clique ${sidRid(b) >>> 32} has fewer than 2 members")
        val rids = Array.tabulate(e - b)(k => sidRid(b + k).toInt)
        rids.iterator.map(_ % p).filter { t => val fresh = last(t) != b; last(t) = b; fresh }.map(t => (t.toLong, rids))
      }
    }.partitionBy(byMod)
    var state = cliques.mapPartitionsWithIndex((q, it) => Iterator(build(p, q, numR, it.map(_._2))))
      .persist(StorageLevel.MEMORY_AND_DISK)
    var iterations = 0
    try {
      var converged = false
      while (!converged) {
        val msgs = state.mapPartitionsWithIndex((q, it) => sends(it.next(), p, q)).partitionBy(byMod)
        val next = state.zipPartitions(msgs)((it, ms) => Iterator(step(it.next(), p, ms)._1)).localCheckpoint()
        // Spark logs one WARN per pass as it unpersists the superseded,
        // locally checkpointed state. That is expected: a reliable checkpoint
        // would need a checkpoint directory, and keeping the superseded state
        // would grow the cache by one state a pass (SndSparkSpec allows one
        // persistent RDD after a run). If the job throws, `next` is the state
        // the failure path releases.
        val changed = try next.map(_.changed.length.toLong).reduce(_ + _)
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
      val s = it.next()
      Iterator.tabulate(s.owned)(i => (i.toLong * p + q, s.tau(i)))
    }.toDF("rid", "kappa")
    (kappa, iterations)
  }
}
