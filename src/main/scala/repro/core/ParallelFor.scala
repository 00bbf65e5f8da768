package repro.core

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{CountDownLatch, ExecutorService, Executors}
import scala.collection.concurrent.TrieMap

/** Chunked dynamic-scheduling parallel loop — the JVM analogue of the
  * paper's ``#pragma omp parallel for schedule(dynamic, 100)`` (§4.3).
  *
  * Worker threads grab chunks of the index space from an atomic counter, so
  * load stays balanced when the notification mechanism leaves most r-cliques
  * idle. Each worker gets its own scratch object (h-index buffers), and the
  * latch at the end of every invocation provides the same happens-before
  * barrier as OpenMP's implicit barrier.
  */
object ParallelFor {

  /** Chunk size; the paper uses 100 and reports insensitivity to the value. */
  val Chunk = 100

  // One daemon pool per requested thread count, reused across the thousands
  // of passes a convergence run makes (thread spawn per pass would dominate
  // the sub-millisecond pass times of small graphs).
  private val pools = TrieMap.empty[Int, ExecutorService]

  private def pool(threads: Int): ExecutorService =
    pools.getOrElseUpdate(threads, Executors.newFixedThreadPool(threads, r => {
      val t = new Thread(r, s"repro-pfor-$threads")
      t.setDaemon(true)
      t
    }))

  /** A loop body. Not a ``Function2``, so the index reaches it unboxed;
    * a lambda converts to it.
    */
  trait Body[S] { def apply(i: Int, s: S): Unit }

  /** Run ``body(i, scratch)`` for every i in [0, n) on ``threads`` workers,
    * [[Chunk]] indices at a time. ``mkScratch`` is invoked once per worker.
    * With threads <= 1 or n <= [[Chunk]] the loop runs inline
    * (deterministic sequential order 0..n-1).
    */
  def dynamic[S](n: Int, threads: Int)(mkScratch: () => S)(body: Body[S]): Unit = {
    if (threads <= 1 || n <= Chunk) {
      val s = mkScratch()
      var i = 0
      while (i < n) { body(i, s); i += 1 }
      return
    }
    val next = new AtomicInteger(0)
    val done = new CountDownLatch(threads)
    val err = new java.util.concurrent.atomic.AtomicReference[Throwable](null)
    val p = pool(threads)
    var t = 0
    while (t < threads) {
      p.execute { () =>
        try {
          val s = mkScratch()
          var lo = next.getAndAdd(Chunk)
          while (lo < n && err.get() == null) {
            val hi = math.min(lo + Chunk, n)
            var i = lo
            while (i < hi) { body(i, s); i += 1 }
            lo = next.getAndAdd(Chunk)
          }
        } catch { case e: Throwable => err.compareAndSet(null, e) }
        finally done.countDown()
      }
      t += 1
    }
    done.await()
    if (err.get() != null) throw err.get()
  }
}
