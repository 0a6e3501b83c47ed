package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Edge, SlidingQuery, Sweep}
import repro.util.DetRandom

class ReferenceSpec extends AnyFunSuite {

  /** Random walks plus a constant series, so zero-variance windows occur. */
  private def panel(n: Int, len: Int, seed: Long): Array[Array[Double]] =
    Array.tabulate(n) { i =>
      if (i == n - 1) Array.fill(len)(3.0)
      else {
        var level = 100.0 * i
        Array.tabulate(len) { t => level += DetRandom.gaussian(seed, i.toLong, t.toLong); level }
      }
    }

  test("pairIndex enumerates the pairs i < j densely in row-major order") {
    val n = 7
    val idx = for (i <- 0 until n; j <- i + 1 until n) yield Reference.pairIndex(i, j, n)
    assert(idx === (0 until Reference.numPairs(n)))
  }

  for {
    (start, bw, nS, s) <- Seq((0, 4, 6, 1), (8, 4, 6, 2), (0, 12, 10, 3), (24, 8, 4, 4))
  } test(s"exact table equals Sweep.naive (start=$start, bw=$bw, nS=$nS, s=$s)") {
    val len = 480
    val x = panel(5, len + start, seed = 5L + bw)
    val q = SlidingQuery(start.toLong, (start + len).toLong, windowLen = nS * bw, step = s * bw, beta = 0.5, bwSize = bw)
    val table = Reference.corrTable(x, q)
    assert(table.length === Reference.numPairs(5) * q.numWindows)
    for (i <- 0 until 5; j <- i + 1 until 5) {
      val naive = Sweep.naive(x(i).slice(start, start + len), x(j).slice(start, start + len), q)
      naive.foreach { case (w, c) =>
        assert(math.abs(table(Reference.pairIndex(i, j, 5) * q.numWindows + w) - c) <= 1e-9, s"pair ($i,$j) window $w")
      }
    }
    assert(Reference.spotCheck(x, q, table) <= Reference.Tol)
  }

  private val q = SlidingQuery(0L, 96L, windowLen = 24, step = 8, beta = 0.3, bwSize = 8)
  private val x = panel(4, 96, seed = 9L)
  private val table = Reference.corrTable(x, q)
  private val exact = for {
    i <- 0 until 4; j <- i + 1 until 4; w <- 0 until q.numWindows
    c = table(Reference.pairIndex(i, j, 4) * q.numWindows + w) if c >= q.beta
  } yield Edge(i, j, w, c)

  test("check accepts the exact edges and counts them as hits") {
    assert(exact.nonEmpty)
    val c = Reference.check(exact.toArray, q, 4, table)
    assert(c.error.isEmpty)
    assert(c.hits === exact.length.toLong)
    assert(Reference.exactEdges(table, q.beta) === exact.length.toLong)
  }

  test("check rejects malformed, duplicate, sub-threshold and inexact edges") {
    val e = exact.head
    val bad = Seq(
      e.copy(i = e.j, j = e.i), e.copy(j = 4), e.copy(w = q.numWindows), e.copy(w = -1),
      e.copy(corr = e.corr + 1e-6), e.copy(corr = q.beta - 1e-3))
    bad.foreach { b => assert(Reference.check(Array(b), q, 4, table).error.nonEmpty, s"$b accepted") }
    assert(Reference.check(Array(e, e), q, 4, table).error.exists(_.contains("duplicate")))
  }
}
