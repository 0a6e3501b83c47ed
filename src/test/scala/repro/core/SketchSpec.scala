package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.{SparkSpec, SparkTestData, Oracle}
import repro.naive.NaiveCorr
import repro.parcorr.ParCorr
import repro.tsubasa.Tsubasa

class SketchSpec extends SparkSpec {
  import TestSeries._

  private lazy val n = 5
  private lazy val len = 96
  private lazy val matrix = SparkTestData.panel(51L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)
  private lazy val q = SlidingQuery(0L, len.toLong, windowLen = 32, step = 8, beta = 0.5, bwSize = 8)

  /** The sketch through the segment / self-join / regroup stages. */
  private def referenceSketches(v: DataFrame, query: SlidingQuery): Dataset[PairSketch] =
    Sketch.pairSketches(Sketch.pairStats(Sketch.segments(v, query)), query)

  private def panelOf(seed: Long, sids: Seq[Int], length: Int): Map[Int, Array[Double]] =
    sids.map(sid => sid -> series(seed, sid, length)).toMap

  /** Inputs for the tiled build: (what it covers, series by sid, query). */
  private lazy val buildCases: Seq[(String, Map[Int, Array[Double]], SlidingQuery)] = {
    val q64 = SlidingQuery(0L, 64L, 32, 16, 0.0, 16)
    Seq(
      ("N=1, no pairs", panelOf(98L, Seq(0), 64), q64),
      ("N=2", panelOf(99L, Seq(0, 1), 64), q64),
      ("N=5, empty blocks", matrix.indices.map(sid => sid -> matrix(sid)).toMap, q),
      ("N=13, uneven blocks", panelOf(71L, 0 until 13, len), q),
      ("non-zero query start", matrix.indices.map(sid => sid -> matrix(sid)).toMap,
        SlidingQuery(16L, 80L, windowLen = 32, step = 8, beta = 0.5, bwSize = 8)),
      ("non-contiguous sids", panelOf(72L, Seq(3, 17, 42, 1001), len), q))
  }

  test("segments: one per (sid, bw), values in time order") {
    val segs = Sketch.segments(values, q).collect()
    assert(segs.length === n * q.nBw)
    segs.foreach { s =>
      assert(s.vals.length === q.bwSize)
      s.vals.indices.foreach { u =>
        assert(s.vals(u) === matrix(s.sid)(s.bw * q.bwSize + u))
      }
    }
  }

  test("segments respect a non-zero query start") {
    val q2 = SlidingQuery(16L, 80L, windowLen = 32, step = 8, beta = 0.5, bwSize = 8)
    val segs = Sketch.segments(values, q2).collect()
    assert(segs.length === n * q2.nBw)
    val seg0 = segs.find(s => s.sid == 0 && s.bw == 0).get
    seg0.vals.indices.foreach(u => assert(seg0.vals(u) === matrix(0)(16 + u)))
  }

  test("seriesStats match local mean/m2") {
    val stats = Sketch.seriesStats(Sketch.segments(values, q)).collect()
    assert(stats.length === n * q.nBw)
    stats.foreach { st =>
      val slice = matrix(st.sid).slice(st.bw * q.bwSize, (st.bw + 1) * q.bwSize)
      val (mean, m2) = Sketch.meanM2(slice)
      assert(st.cnt === q.bwSize.toLong)
      assert(math.abs(st.mean - mean) < 1e-9)
      assert(math.abs(st.m2 - m2) < 1e-9)
    }
  }

  test("seriesStats agree with the DuckDB oracle (group-by mean)") {
    import org.apache.spark.sql.functions._
    val sparkDf = Sketch.seriesStats(Sketch.segments(values, q)).toDF()
      .select(col("sid"), col("bw"), col("cnt"), round(col("mean"), 4).as("m"))
    // NB: DuckDB's / on integers is float division; // is integer division.
    val sql =
      s"""SELECT CAST(sid AS INT) AS sid,
         |       CAST(CAST(t AS BIGINT) // ${q.bwSize} AS INT) AS bw,
         |       count(*) AS cnt,
         |       round(avg(CAST(v AS DOUBLE)), 4) AS m
         |FROM ts
         |GROUP BY 1, 2""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "ts" -> values)
  }

  test("pairStats: all i<j pairs for every basic window, cp correct") {
    val ps = Sketch.pairStats(Sketch.segments(values, q)).collect()
    assert(ps.length === n * (n - 1) / 2 * q.nBw)
    ps.foreach { p =>
      assert(p.i < p.j)
      val xs = matrix(p.i).slice(p.bw * q.bwSize, (p.bw + 1) * q.bwSize)
      val ys = matrix(p.j).slice(p.bw * q.bwSize, (p.bw + 1) * q.bwSize)
      val (mx, m2x) = Sketch.meanM2(xs)
      val (my, m2y) = Sketch.meanM2(ys)
      val cp = xs.indices.map(u => (xs(u) - mx) * (ys(u) - my)).sum
      assert(math.abs(p.meanX - mx) < 1e-9)
      assert(math.abs(p.m2x - m2x) < 1e-9)
      assert(math.abs(p.meanY - my) < 1e-9)
      assert(math.abs(p.m2y - m2y) < 1e-9)
      assert(math.abs(p.cp - cp) < 1e-9)
    }
  }

  test("pairSketches assemble arrays identical to the local builder") {
    val sks = Sketch.build(values, q).collect()
    assert(sks.length === n * (n - 1) / 2)
    sks.foreach { sk =>
      val local = sketchOf(matrix(sk.i), matrix(sk.j), q.bwSize, sk.i, sk.j)
      for (t <- 0 until q.nBw) {
        assert(math.abs(sk.meanX(t) - local.meanX(t)) < 1e-9)
        assert(math.abs(sk.m2x(t) - local.m2x(t)) < 1e-9)
        assert(math.abs(sk.meanY(t) - local.meanY(t)) < 1e-9)
        assert(math.abs(sk.m2y(t) - local.m2y(t)) < 1e-9)
        assert(math.abs(sk.cp(t) - local.cp(t)) < 1e-9)
      }
    }
    // The tiled build, at the cluster's block count and at a few others,
    // equals the reference path bit for bit on every array of every pair,
    // also when each series' rows are spread over several input partitions
    // and so reach the tile tasks as several chunks.
    def arrays(sk: PairSketch) = Seq(sk.meanX, sk.m2x, sk.meanY, sk.m2y, sk.cp)
    buildCases.foreach { case (name, bySid, query) =>
      val v = SparkTestData.toValuesDf(spark, bySid)
      val nPairs = bySid.size * (bySid.size - 1) / 2
      val ref = referenceSketches(v, query).collect().map(sk => (sk.i, sk.j) -> sk).toMap
      assert(ref.size === nPairs, name)
      val straddled = v.repartition(7).cache()
      val builds = ("cluster blocks" -> Sketch.build(v, query)) +:
        ("cluster blocks, rows over 7 partitions" -> Sketch.build(straddled, query)) +:
        Seq(1, 3, 7).flatMap(nb => Seq(
          s"nb=$nb" -> Sketch.tiled(v, query, nb),
          s"nb=$nb, rows over 7 partitions" -> Sketch.tiled(straddled, query, nb)))
      builds.foreach { case (how, ds) =>
        val sks = ds.collect()
        assert(sks.length === nPairs, s"$name, $how")
        sks.foreach { sk =>
          val r = ref((sk.i, sk.j))
          arrays(sk).zip(arrays(r)).foreach { case (got, want) =>
            assert(java.util.Arrays.equals(got, want), s"$name, $how: pair (${sk.i},${sk.j})")
          }
          val from = query.start.toInt; val until = query.end.toInt
          val local = sketchOf(bySid(sk.i).slice(from, until), bySid(sk.j).slice(from, until),
            query.bwSize, sk.i, sk.j)
          arrays(sk).zip(arrays(local)).foreach { case (got, want) =>
            got.indices.foreach(t => assert(math.abs(got(t) - want(t)) < 1e-9, s"$name, $how"))
          }
        }
      }
      straddled.unpersist()
    }
  }

  test("tiled build: block rule, every pair once, one partition per non-empty block pair") {
    assert(Seq(1, 2, 3, 4, 8, 16, 64).map(Sketch.numBlocks) === Seq(2, 3, 3, 4, 6, 8, 16))
    (1 to 200).foreach { p =>
      val nb = Sketch.numBlocks(p)
      assert(nb * (nb + 1) / 2 >= 2 * p && (nb - 1) * nb / 2 < 2 * p, s"parallelism $p")
    }
    val clusterNb = Sketch.numBlocks(spark.sparkContext.defaultParallelism)
    for {
      (name, bySid, query) <- buildCases
      nb <- Seq(clusterNb, 3, 7)
    } {
      val v = SparkTestData.toValuesDf(spark, bySid)
      val ds = if (nb == clusterNb) Sketch.build(v, query) else Sketch.tiled(v, query, nb)
      val parts = ds.rdd.mapPartitions(it => Iterator(it.map(sk => (sk.i, sk.j)).toVector)).collect()
      val blockPairs = Sketch.blockPairs(nb)
      assert(parts.length === blockPairs.length, s"$name, nb=$nb")
      val sids = bySid.keys.toSeq.sorted
      val allPairs = for (a <- sids; b <- sids if a < b) yield (a, b)
      assert(parts.flatten.sorted.toSeq === allPairs, s"$name, nb=$nb")
      def block(sid: Int) = Math.floorMod(sid, nb)
      parts.zip(blockPairs).foreach { case (pairs, (bi, bj)) =>
        pairs.foreach { case (i, j) =>
          assert(Set(block(i), block(j)) === Set(bi, bj), s"$name, nb=$nb: ($i,$j) in block pair ($bi,$bj)")
        }
      }
      val size = sids.groupBy(block).view.mapValues(_.length).toMap.withDefaultValue(0)
      val nonEmpty = blockPairs.count { case (bi, bj) =>
        if (bi == bj) size(bi) >= 2 else size(bi) > 0 && size(bj) > 0
      }
      assert(parts.count(_.nonEmpty) === nonEmpty, s"$name, nb=$nb")
    }
  }

  test("sketch windowCorr equals direct Pearson on the distributed sketch") {
    val sks = Sketch.build(values, q).collect()
    sks.foreach { sk =>
      for (w <- 0 until q.numWindows) {
        val viaSketch = PairMath.windowCorr(sk, q.windowOffsetBw(w), q.nS, q.bwSize)
        val direct = PairMath.directPearson(matrix(sk.i), matrix(sk.j), w * q.step, q.windowLen)
        assert(math.abs(viaSketch - direct) < 1e-9)
      }
    }
  }

  test("seriesArrays reconstruct the original series over the range") {
    val arrs = Sketch.seriesArrays(values, q).collect()
    assert(arrs.length === n)
    arrs.foreach { sa =>
      sa.vals.indices.foreach(t => assert(sa.vals(t) === matrix(sa.sid)(t)))
    }
  }

  test("seriesPairs yields every i<j combination once") {
    val pairs = Sketch.seriesPairs(Sketch.seriesArrays(values, q)).collect()
    assert(pairs.map(p => (p._1, p._2)).toSet ===
      (for (i <- 0 until n; j <- (i + 1) until n) yield (i, j)).toSet)
  }

  test("pairSketches reject non-dense input (ragged pair windows)") {
    // punch a hole in ONE series only, so pair basic windows go ragged
    val sparse = values.where("NOT (sid = 0 AND t = 13)")
    val ex = intercept[Exception] {
      Sketch.build(sparse, q).collect()
    }
    assert(ex.getMessage != null)
  }

  test("seriesArrays consumers reject a repeated or missing t, naming sid and t") {
    import org.apache.spark.sql.functions.spark_partition_id
    // sid 0 loses t=13 and repeats t=14, so its basic window 8..15 still holds 8 rows.
    // The union puts the repeated row in a different input partition, and so a different chunk, from the original.
    val repeated = values.where("NOT (sid = 0 AND t = 13)").union(values.where("sid = 0 AND t = 14"))
    val t14Parts = repeated.where("sid = 0 AND t = 14").select(spark_partition_id()).collect().map(_.getInt(0))
    assert(t14Parts.length === 2 && t14Parts.distinct.length === 2, t14Parts.mkString(","))
    // sid 2's remaining rows are spread over several input partitions.
    val missing = values.repartition(7).where("NOT (sid = 2 AND t = 40)")
    val consumers: Seq[(String, DataFrame => Unit)] = Seq(
      "Sketch.build" -> (v => Sketch.build(v, q).collect()),
      "Dangoron.run" -> (v => Dangoron.run(v, q)._1.collect()),
      "Tsubasa.run" -> (v => Tsubasa.run(v, q)._1.collect()),
      "NaiveCorr.edges" -> (v => NaiveCorr.edges(v, q).collect()),
      "ParCorr.run" -> (v => ParCorr.run(v, q).collect()))
    consumers.foreach { case (name, consume) =>
      val dup = intercept[Exception](consume(repeated))
      assert(dup.getMessage.contains("series 0 has more than one value at t=14"), s"$name: ${dup.getMessage}")
      val gap = intercept[Exception](consume(missing))
      assert(gap.getMessage.contains("series 2 has no value at t=40"), s"$name: ${gap.getMessage}")
    }
  }

  test("sketch build handles a single pair (n=2)") {
    val m2 = Array(series(99L, 0, 64), series(99L, 1, 64))
    val v2 = SparkTestData.toValuesDf(spark, m2)
    val q2 = SlidingQuery(0L, 64L, 32, 16, 0.0, 16)
    val sks = Sketch.build(v2, q2).collect()
    assert(sks.length === 1)
    assert(sks.head.i === 0 && sks.head.j === 1)
  }
}
