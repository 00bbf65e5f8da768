package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Wall-clock time of the calls one operation makes, summed per name. */
final class Spans {
  val ms: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  /** Total time inside spans, each call counted once whatever its names. */
  var coveredMs = 0.0

  /** Per-name totals of each engine round an operation ran, in order. */
  val rounds: mutable.ArrayBuffer[collection.Map[String, Double]] = mutable.ArrayBuffer.empty

  def add(name: String, v: Double): Unit = ms(name) = ms.getOrElse(name, 0.0) + v

  /** Add a round's spans to these, keeping its totals in [[rounds]]. */
  def addRound(r: Spans): Unit = {
    r.ms.foreach { case (k, v) => add(k, v) }
    coveredMs += r.coveredMs
    rounds += r.ms
  }

  /** Run ``f`` and add its wall time (ms) to every name in ``names``. */
  def time[T](names: String*)(f: => T): T = {
    val t0 = System.nanoTime()
    try f finally {
      val d = (System.nanoTime() - t0) / 1e6
      coveredMs += d
      names.foreach(add(_, d))
    }
  }
}

/** Spark work of one job group, summed from the task metrics of its stages. */
final class SparkWork {
  var jobs, tasks, emptyTasks, taskMs = 0L
  var shuffleWriteBytes, shuffleReadBytes, resultBytes = 0L
}

/** Benchmark-owned listener that sums task metrics per job group. The
  * benchmark sets a fresh group around each call it wants attributed
  * ([[SparkPhases.run]]), so no program code needs to know about phases.
  */
final class SparkPhases(sc: SparkContext) extends SparkListener {
  private val byGroup = new ConcurrentHashMap[String, SparkWork]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val ended = ConcurrentHashMap.newKeySet[Int]()
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (g != null) {
      byGroup.computeIfAbsent(g, _ => new SparkWork).jobs += 1
      e.stageIds.foreach(stageGroup.putIfAbsent(_, g))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    val m = e.taskMetrics
    if (g != null && m != null) {
      val w = byGroup.computeIfAbsent(g, _ => new SparkWork)
      w.tasks += 1
      w.taskMs += m.executorRunTime
      w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      w.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      w.resultBytes += m.resultSize
      if (m.shuffleReadMetrics.recordsRead == 0 && m.inputMetrics.recordsRead == 0)
        w.emptyTasks += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)

  private var serial = 0

  /** Run ``f`` under a fresh job group and return its Spark work once the
    * listener has seen every job of the group end.
    */
  def run[T](phase: String)(f: => T): (T, SparkWork) = {
    serial += 1
    val group = s"$phase#$serial"
    sc.setJobGroup(group, phase)
    val out = try f finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (!sc.statusTracker.getJobIdsForGroup(group).forall(ended.contains) &&
           System.nanoTime() < deadline) Thread.sleep(2)
    (out, Option(byGroup.remove(group)).getOrElse(new SparkWork))
  }
}
