package repro.core

import scala.collection.mutable

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** One series' values within one basic window (sorted by time). */
final case class Segment(sid: Int, bw: Int, vals: Array[Double])

/** Per-series basic-window statistics (TSUBASA's per-series sketch). */
final case class SeriesBw(sid: Int, bw: Int, cnt: Long, mean: Double, m2: Double)

/** Per-pair per-basic-window statistics row (before assembly into arrays). */
final case class PairBw(i: Int, j: Int, bw: Int,
                        meanX: Double, m2x: Double,
                        meanY: Double, m2y: Double, cp: Double)

/** One series' full raw values over the query range — naive baseline input. */
final case class SeriesArr(sid: Int, vals: Array[Double])

/** One input partition's rows of one series: each value's offset from the
  * query start, in the order the rows arrived. Every input partition sends
  * one chunk per series it holds.
  */
private[core] final case class SeriesChunk(sid: Int, offsets: Array[Int], values: Array[Double])

/** One series' raw values with its basic-window means and centered sums of
  * squares, as held by a block-pair task of the tiled sketch build.
  */
private[core] final case class SeriesTile(sid: Int, vals: Array[Double], mean: Array[Double], m2: Array[Double])

/** The basic-window sketch substrate, shared by Dangoron and TSUBASA.
  *
  * Input contract throughout: a long-format DataFrame with columns
  * ``sid`` (int), ``t`` (long, dense time steps), ``v`` (double).
  *
  * [[build]] tiles the pair space (ParCorr's grid partitioning, Yagoubi et
  * al., DAMI '18) with one shuffle from rows to pairs. Each input
  * partition groups its own rows by sid into one [[SeriesChunk]] per
  * series; rows are never shuffled one by one. The series are cut into
  * ``nb`` blocks by ``floorMod(sid, nb)``, and each chunk is sent to the
  * ``nb`` block pairs (I ≤ J) of its series, one output partition per
  * block pair. That shuffle moves N·L·nb values plus their Int offsets.
  * One task per block pair scatters its chunks into a dense array per
  * series, checks that each series has exactly one value at every t,
  * computes each series' basic-window means and M2, and computes the
  * cross products in a tight loop. A task holds two blocks, O((N/nb)·L)
  * values. No per-pair state is shuffled: [[tilePairs]] hands each pair to
  * the next narrow operation, such as the sweep of [[Dangoron.run]], in
  * the same task. [[seriesArrays]] assembles series from the same chunks
  * with the same density check.
  *
  * [[segments]], [[pairStats]] and [[pairSketches]] are the reference path:
  * one shuffle to segment the series into basic windows, a self-join on the
  * basic-window id to form all N(N−1)/2 × nBw pair statistics, and one
  * shuffle to assemble per-pair arrays. It sums in the same order as
  * [[build]], so the two give bit-identical sketches.
  */
object Sketch {

  /** Segment the query range into basic windows, values time-ordered. */
  def segments(values: DataFrame, q: SlidingQuery): Dataset[Segment] = {
    val spark = values.sparkSession
    import spark.implicits._
    val start = q.start; val end = q.end; val b = q.bwSize
    values
      .select(col("sid").cast("int"), col("t").cast("long"), col("v").cast("double"))
      .where(col("t") >= start && col("t") < end)
      .as[(Int, Long, Double)]
      .groupByKey { case (sid, t, _) => (sid, ((t - start) / b).toInt) }
      .mapGroups { (key, rows) =>
        Segment(key._1, key._2, rows.toArray.sortBy(_._2).map(_._3))
      }
  }

  /** Per-series basic-window stats from segments. */
  def seriesStats(segs: Dataset[Segment]): Dataset[SeriesBw] = {
    val spark = segs.sparkSession
    import spark.implicits._
    segs.map { s =>
      val (mean, m2) = meanM2(s.vals)
      SeriesBw(s.sid, s.bw, s.vals.length.toLong, mean, m2)
    }
  }

  /** All-pairs per-basic-window stats: segments self-joined on the basic
    * window id (i < j), centered cross products computed per row. This is
    * the expensive precompute both frameworks share.
    */
  def pairStats(segs: Dataset[Segment]): Dataset[PairBw] = {
    val spark = segs.sparkSession
    import spark.implicits._
    val a = segs.toDF("sid", "bw", "vals").alias("a")
    val b = segs.toDF("sid", "bw", "vals").alias("b")
    a.join(b, col("a.bw") === col("b.bw") && col("a.sid") < col("b.sid"))
      .select(
        col("a.sid").as("i"), col("b.sid").as("j"), col("a.bw").as("bw"),
        col("a.vals").as("xs"), col("b.vals").as("ys"))
      .as[(Int, Int, Int, Array[Double], Array[Double])]
      .map { case (i, j, bw, xs, ys) =>
        require(xs.length == ys.length, s"ragged basic window bw=$bw for pair ($i,$j)")
        val (mx, m2x) = meanM2(xs)
        val (my, m2y) = meanM2(ys)
        var cpv = 0.0
        var u = 0
        while (u < xs.length) { cpv += (xs(u) - mx) * (ys(u) - my); u += 1 }
        PairBw(i, j, bw, mx, m2x, my, m2y, cpv)
      }
  }

  /** Assemble per-pair array sketches (one row per pair, arrays indexed by
    * local basic-window id). Requires every pair to have all ``nBw`` basic
    * windows — synthetic inputs here are dense.
    */
  def pairSketches(pairBw: Dataset[PairBw], q: SlidingQuery): Dataset[PairSketch] = {
    val spark = pairBw.sparkSession
    import spark.implicits._
    val nBw = q.nBw
    pairBw
      .groupByKey(r => (r.i, r.j))
      .mapGroups { (key, rows) =>
        val (i, j) = key
        val meanX = new Array[Double](nBw); val m2x = new Array[Double](nBw)
        val meanY = new Array[Double](nBw); val m2y = new Array[Double](nBw)
        val cp = new Array[Double](nBw)
        var seen = 0
        rows.foreach { r =>
          meanX(r.bw) = r.meanX; m2x(r.bw) = r.m2x
          meanY(r.bw) = r.meanY; m2y(r.bw) = r.m2y
          cp(r.bw) = r.cp; seen += 1
        }
        require(seen == nBw, s"pair ($i,$j) has $seen of $nBw basic windows — input not dense")
        PairSketch(i, j, meanX, m2x, meanY, m2y, cp)
      }
  }

  /** Build pair sketches straight from raw values, one task per block pair;
    * see the object's description. The number of blocks follows the
    * cluster's parallelism ([[numBlocks]]). If the input's own plan has a
    * shuffle and adaptive query execution is on, Spark runs that shuffle
    * when this is called.
    */
  def build(values: DataFrame, q: SlidingQuery): Dataset[PairSketch] =
    tiled(values, q, numBlocks(values.sparkSession.sparkContext.defaultParallelism))

  /** The pair sketches of [[build]], each created inside its block-pair task.
    * A narrow operation on the result runs in that task, so the pair
    * sketches are neither encoded nor stored.
    */
  private[repro] def tilePairs(values: DataFrame, q: SlidingQuery): RDD[PairSketch] =
    tilePairs(values, q, numBlocks(values.sparkSession.sparkContext.defaultParallelism))

  /** The smallest number of series blocks ``nb`` whose nb(nb+1)/2 block
    * pairs give every core at least two tile tasks.
    */
  def numBlocks(parallelism: Int): Int = {
    var nb = 1
    while (nb * (nb + 1) / 2 < 2 * parallelism) nb += 1
    nb
  }

  /** The block pairs (I ≤ J) of ``nb`` blocks; a block pair's position here
    * is its output partition.
    */
  def blockPairs(nb: Int): IndexedSeq[(Int, Int)] =
    for (bi <- 0 until nb; bj <- bi until nb) yield (bi, bj)

  /** [[build]] with ``nb`` series blocks. */
  private[core] def tiled(values: DataFrame, q: SlidingQuery, nb: Int): Dataset[PairSketch] = {
    val spark = values.sparkSession
    import spark.implicits._
    spark.createDataset(tilePairs(values, q, nb))
  }

  /** [[tilePairs]] with ``nb`` series blocks. */
  private def tilePairs(values: DataFrame, q: SlidingQuery, nb: Int): RDD[PairSketch] = {
    val b = q.bwSize; val nBw = q.nBw
    val pairs = blockPairs(nb)
    val index = pairs.zipWithIndex.toMap
    chunks(values, q)
      .flatMap { c =>
        val bi = Math.floorMod(c.sid, nb)
        (0 until nb).map(bj => (index((math.min(bi, bj), math.max(bi, bj))), c))
      }
      // Int keys 0 until nb(nb+1)/2 hash to themselves: one block pair per partition.
      .partitionBy(new HashPartitioner(pairs.length))
      .mapPartitionsWithIndex { (p, rows) =>
        val (bi, bj) = pairs(p)
        val series = assemble(rows.map(_._2), q).map { sa =>
          val mean = new Array[Double](nBw); val m2 = new Array[Double](nBw)
          var w = 0
          while (w < nBw) {
            val (mu, ss) = meanM2(sa.vals, w * b, (w + 1) * b)
            mean(w) = mu; m2(w) = ss; w += 1
          }
          SeriesTile(sa.sid, sa.vals, mean, m2)
        }
        val xs = series.filter(s => Math.floorMod(s.sid, nb) == bi)
        val ys = if (bi == bj) xs else series.filter(s => Math.floorMod(s.sid, nb) == bj)
        for (x <- xs.iterator; y <- ys.iterator if bi != bj || x.sid < y.sid)
          yield if (x.sid < y.sid) pairSketch(x, y, b) else pairSketch(y, x, b)
      }
  }

  /** The sketch of pair (x, y), x.sid < y.sid: the cross products summed
    * in the order [[pairStats]] uses.
    */
  private def pairSketch(x: SeriesTile, y: SeriesTile, b: Int): PairSketch = {
    val nBw = x.mean.length
    val cp = new Array[Double](nBw)
    var w = 0
    while (w < nBw) {
      val mx = x.mean(w); val my = y.mean(w)
      var cpv = 0.0
      var u = w * b
      val end = u + b
      while (u < end) { cpv += (x.vals(u) - mx) * (y.vals(u) - my); u += 1 }
      cp(w) = cpv; w += 1
    }
    PairSketch(x.sid, y.sid, x.mean, x.m2, y.mean, y.m2, cp)
  }

  /** Full raw series arrays over the query range (naive baseline, ParCorr),
    * assembled from the chunks of [[build]] after one shuffle by sid.
    */
  def seriesArrays(values: DataFrame, q: SlidingQuery): Dataset[SeriesArr] = {
    val spark = values.sparkSession
    import spark.implicits._
    val arrs = chunks(values, q)
      .keyBy(_.sid)
      .partitionBy(new HashPartitioner(spark.sparkContext.defaultParallelism))
      .mapPartitions(rows => assemble(rows.map(_._2), q).iterator)
    spark.createDataset(arrs)
  }

  /** Each input partition's rows in the query range, one [[SeriesChunk]]
    * per series. Rows of one series mostly arrive together, so the last
    * series' builder is looked up once per run of rows rather than per row.
    */
  private def chunks(values: DataFrame, q: SlidingQuery): RDD[SeriesChunk] = {
    val start = q.start
    values
      .select(col("sid").cast("int"), col("t").cast("long"), col("v").cast("double"))
      .where(col("t") >= start && col("t") < q.end)
      .queryExecution.toRdd
      .mapPartitions { rows =>
        val bySid = mutable.LinkedHashMap.empty[Int, (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]
        var lastSid = 0
        var last: (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble) = null
        rows.foreach { r =>
          require(!r.anyNull, "input row has a null sid, t or v")
          val sid = r.getInt(0)
          if (last == null || sid != lastSid) {
            last = bySid.getOrElseUpdate(sid, (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
            lastSid = sid
          }
          last._1 += (r.getLong(1) - start).toInt
          last._2 += r.getDouble(2)
        }
        bySid.iterator.map { case (sid, (offsets, vals)) => SeriesChunk(sid, offsets.result(), vals.result()) }
      }
  }

  /** Scatter chunks into one dense array per series over the query range,
    * in the order the series first appear. Fails, naming the sid and the
    * t, if a series has more than one value or no value at some t.
    */
  private def assemble(chunks: Iterator[SeriesChunk], q: SlidingQuery): Vector[SeriesArr] = {
    val start = q.start; val len = (q.end - start).toInt
    val series = mutable.LinkedHashMap.empty[Int, (Array[Double], Array[Boolean])]
    chunks.foreach { c =>
      val (arr, filled) = series.getOrElseUpdate(c.sid, (new Array[Double](len), new Array[Boolean](len)))
      var k = 0
      while (k < c.offsets.length) {
        val off = c.offsets(k)
        require(!filled(off), s"series ${c.sid} has more than one value at t=${start + off} — input not dense")
        filled(off) = true; arr(off) = c.values(k); k += 1
      }
    }
    series.iterator.map { case (sid, (arr, filled)) =>
      val gap = filled.indexOf(false)
      require(gap < 0, s"series $sid has no value at t=${start + gap} — input not dense")
      SeriesArr(sid, arr)
    }.toVector
  }

  /** All ordered pairs (i < j) of full raw series. */
  def seriesPairs(arrs: Dataset[SeriesArr]): Dataset[(Int, Int, Array[Double], Array[Double])] = {
    val spark = arrs.sparkSession
    import spark.implicits._
    val a = arrs.toDF("sid", "vals").alias("a")
    val b = arrs.toDF("sid", "vals").alias("b")
    a.join(b, col("a.sid") < col("b.sid"))
      .select(col("a.sid"), col("b.sid"), col("a.vals"), col("b.vals"))
      .as[(Int, Int, Array[Double], Array[Double])]
  }

  /** Mean and centered sum of squares in one pass. */
  def meanM2(vals: Array[Double]): (Double, Double) = meanM2(vals, 0, vals.length)

  /** Mean and centered sum of squares of ``vals(from until until)``. */
  def meanM2(vals: Array[Double], from: Int, until: Int): (Double, Double) = {
    var s = 0.0
    var u = from
    while (u < until) { s += vals(u); u += 1 }
    val mean = s / (until - from)
    var m2 = 0.0
    u = from
    while (u < until) { val d = vals(u) - mean; m2 += d * d; u += 1 }
    (mean, m2)
  }
}
