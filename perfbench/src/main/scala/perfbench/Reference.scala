package perfbench

import repro.core.{Edge, PairMath, SlidingQuery, Sweep}

/** The benchmark's own exact answer, computed from the raw N × L matrix
  * with a rolling prefix-sum sweep (O(1) per pair-window). It shares no
  * code with the sketch path it checks: series are shifted by their mean
  * over the query range, so the prefix sums do not lose precision to
  * cancellation.
  */
object Reference {

  /** Returned correlations may differ from the exact ones by this much. */
  val Tol: Double = 1e-9

  /** Index of pair (i, j), i < j, among the n(n−1)/2 pairs in row-major order. */
  def pairIndex(i: Int, j: Int, n: Int): Int = i * (2 * n - i - 1) / 2 + (j - i - 1)

  def numPairs(n: Int): Int = n * (n - 1) / 2

  /** Exact correlation of every pair and window of ``q``; entry
    * ``pairIndex(i, j, n) · numWindows + w``. ``x(sid)(t)`` is the raw
    * value of series ``sid`` at time step ``t``.
    */
  def corrTable(x: Array[Array[Double]], q: SlidingQuery): Array[Double] = {
    val n = x.length
    val len = q.nBw * q.bwSize
    val from = q.start.toInt
    val nW = q.numWindows
    val l = q.windowLen
    val shifted = x.map { row =>
      require(row.length >= from + len, s"series of length ${row.length} shorter than the query range")
      var s = 0.0
      var u = 0
      while (u < len) { s += row(from + u); u += 1 }
      val mean = s / len
      Array.tabulate(len)(u => row(from + u) - mean)
    }
    val px = shifted.map(prefix(_, 1))
    val pxx = shifted.map(prefix(_, 2))
    val pxy = new Array[Double](len + 1)
    val out = new Array[Double](numPairs(n) * nW)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        val a = shifted(i); val b = shifted(j)
        var u = 0
        while (u < len) { pxy(u + 1) = pxy(u) + a(u) * b(u); u += 1 }
        val base = pairIndex(i, j, n) * nW
        var w = 0
        while (w < nW) {
          val s = w * q.step; val e = s + l
          val sx = px(i)(e) - px(i)(s); val sy = px(j)(e) - px(j)(s)
          val vx = pxx(i)(e) - pxx(i)(s) - sx * sx / l
          val vy = pxx(j)(e) - pxx(j)(s) - sy * sy / l
          val cxy = pxy(e) - pxy(s) - sx * sy / l
          out(base + w) =
            if (vx <= PairMath.VarEps || vy <= PairMath.VarEps) 0.0
            else PairMath.clamp(cxy / math.sqrt(vx) / math.sqrt(vy))
          w += 1
        }
        j += 1
      }
      i += 1
    }
    out
  }

  private def prefix(v: Array[Double], power: Int): Array[Double] = {
    val p = new Array[Double](v.length + 1)
    var u = 0
    while (u < v.length) { p(u + 1) = p(u) + (if (power == 1) v(u) else v(u) * v(u)); u += 1 }
    p
  }

  /** Compare the table with [[repro.core.Sweep.naive]] on ``samples``
    * pairs spread evenly over the pair index; returns the worst difference.
    */
  def spotCheck(x: Array[Array[Double]], q: SlidingQuery, table: Array[Double], samples: Int = 16): Double = {
    val n = x.length
    val len = q.nBw * q.bwSize
    val from = q.start.toInt
    val pairs = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
    val step = math.max(1, pairs.length / samples)
    pairs.indices.by(step).map(pairs).map { case (i, j) =>
      val naive = Sweep.naive(x(i).slice(from, from + len), x(j).slice(from, from + len), q)
      val base = pairIndex(i, j, n) * q.numWindows
      naive.map { case (w, c) => math.abs(c - table(base + w)) }.max
    }.max
  }

  /** Number of exact edges: table entries at or above β. */
  def exactEdges(table: Array[Double], beta: Double): Long = table.count(_ >= beta).toLong

  /** Outcome of checking one operation's edges. */
  final case class Check(edges: Long, hits: Long, error: Option[String])

  /** Check every returned edge: ``i < j`` within range, a valid window,
    * ``corr ≥ β``, no duplicate, and ``corr`` within [[Tol]] of the exact
    * value. ``hits`` counts returned edges whose exact value is ≥ β.
    */
  def check(edges: Array[Edge], q: SlidingQuery, n: Int, table: Array[Double]): Check = {
    val nW = q.numWindows
    val seen = new java.util.BitSet(table.length)
    var hits = 0L
    var error: Option[String] = None
    var k = 0
    while (k < edges.length && error.isEmpty) {
      val e = edges(k)
      error =
        if (!(e.i >= 0 && e.i < e.j && e.j < n)) Some(s"bad pair in $e")
        else if (e.w < 0 || e.w >= nW) Some(s"bad window in $e (windows: $nW)")
        else if (!(e.corr >= q.beta)) Some(s"edge below beta ${q.beta}: $e")
        else {
          val idx = pairIndex(e.i, e.j, n) * nW + e.w
          if (seen.get(idx)) Some(s"duplicate edge $e")
          else if (!(math.abs(e.corr - table(idx)) <= Tol)) Some(s"edge $e differs from exact ${table(idx)}")
          else {
            seen.set(idx)
            if (table(idx) >= q.beta) hits += 1
            None
          }
        }
      k += 1
    }
    Check(edges.length.toLong, hits, error)
  }
}
