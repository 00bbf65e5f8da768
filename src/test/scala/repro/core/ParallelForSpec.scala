package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ParallelForSpec extends AnyFunSuite {

  test("visits every index exactly once, sequential") {
    val seen = new Array[Int](1000)
    ParallelFor.dynamic(1000, 1)(() => ())((i, _) => seen(i) += 1)
    assert(seen.forall(_ == 1))
  }

  test("visits every index exactly once, parallel") {
    val seen = new java.util.concurrent.atomic.AtomicIntegerArray(10000)
    ParallelFor.dynamic(10000, 8)(() => ())((i, _) => seen.incrementAndGet(i))
    assert((0 until 10000).forall(seen.get(_) == 1))
  }

  test("sequential mode preserves order") {
    val order = scala.collection.mutable.ArrayBuffer.empty[Int]
    ParallelFor.dynamic(50, 1)(() => ())((i, _) => order += i)
    assert(order.toSeq == (0 until 50))
  }

  test("n = 0 is a no-op") {
    var ran = false
    ParallelFor.dynamic(0, 4)(() => ())((_, _) => ran = true)
    assert(!ran)
  }

  test("more threads than work still covers everything") {
    // Two chunks of work for sixteen workers.
    val n = ParallelFor.Chunk + 50
    val seen = new java.util.concurrent.atomic.AtomicIntegerArray(n)
    ParallelFor.dynamic(n, 16)(() => ())((i, _) => seen.incrementAndGet(i))
    assert((0 until n).forall(seen.get(_) == 1))
  }

  test("each worker gets its own scratch") {
    val scratches = java.util.concurrent.ConcurrentHashMap.newKeySet[AnyRef]()
    ParallelFor.dynamic(5000, 4)(() => new Object) { (_, s) => scratches.add(s); () }
    assert(scratches.size <= 4 && scratches.size >= 1)
  }

  test("exceptions propagate to the caller") {
    val e = intercept[RuntimeException] {
      ParallelFor.dynamic(1000, 4)(() => ()) { (i, _) =>
        if (i == 500) throw new RuntimeException("boom")
      }
    }
    assert(e.getMessage == "boom")
  }

  test("sums computed in parallel match sequential") {
    val n = 100000
    val acc = new java.util.concurrent.atomic.AtomicLong(0)
    ParallelFor.dynamic(n, 8)(() => ())((i, _) => acc.addAndGet(i.toLong))
    assert(acc.get() == n.toLong * (n - 1) / 2)
  }
}
