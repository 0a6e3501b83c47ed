package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.{SparkSpec, SparkTestData}
import repro.naive.NaiveCorr
import repro.tsubasa.Tsubasa

class DangoronSparkSpec extends SparkSpec {

  private lazy val n = 6
  private lazy val len = 192
  private lazy val matrix = SparkTestData.panel(61L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)

  private def q(beta: Double) =
    SlidingQuery(0L, len.toLong, windowLen = 48, step = 8, beta = beta, bwSize = 8)

  test("beta = -1: Dangoron equals naive on every pair-window") {
    val query = q(-1.0)
    val (edges, _) = Dangoron.run(values, query)
    val got = edges.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
    val expect = NaiveCorr.allCorrs(values, query).collect()
      .map(e => (e.i, e.j, e.w) -> e.corr).toMap
    assert(got.keySet === expect.keySet)
    assert(got.size === n * (n - 1) / 2 * query.numWindows)
    got.foreach { case (k, c) => assert(math.abs(c - expect(k)) < 1e-9, s"at $k") }
  }

  for (beta <- Seq(0.4, 0.7, 0.9)) {
    test(s"reported edges are exact and truly above beta=$beta") {
      val query = q(beta)
      val (edges, _) = Dangoron.run(values, query)
      val truth = NaiveCorr.allCorrs(values, query).collect()
        .map(e => (e.i, e.j, e.w) -> e.corr).toMap
      edges.collect().foreach { e =>
        assert(e.corr >= beta)
        assert(math.abs(e.corr - truth((e.i, e.j, e.w))) < 1e-9)
      }
    }
  }

  test("Dangoron.run gives the same edges and RunStats as the reference-path sketch") {
    import spark.implicits._
    def panelOf(seed: Long, sids: Seq[Int]): Map[Int, Array[Double]] = {
      val m = SparkTestData.panel(seed, sids.length, len)
      sids.zip(m).toMap
    }
    // Tsubasa.run shares the fused tile-and-sweep path, so it is checked
    // alongside. Every case but the first spreads each series' rows over 7
    // input partitions, so the tile tasks assemble each series from several
    // chunks.
    def straddledOf(seed: Long, sids: Seq[Int]) =
      SparkTestData.toValuesDf(spark, panelOf(seed, sids)).repartition(7).cache()
    val cases: Seq[(String, DataFrame, Double => SlidingQuery)] = Seq(
      ("N=6", values, q),
      ("N=6, rows over 7 partitions, non-zero query start", values.repartition(7).cache(),
        beta => SlidingQuery(16L, 176L, windowLen = 48, step = 8, beta = beta, bwSize = 8)),
      ("N=1", straddledOf(62L, Seq(0)), q),
      ("N=2", straddledOf(63L, Seq(0, 1)), q),
      ("N=13", straddledOf(64L, 0 until 13), q),
      ("sids 3, 17, 42, 1001", straddledOf(65L, Seq(3, 17, 42, 1001)), q))
    def sorted(edges: Dataset[Edge]) = edges.collect().sortBy(e => (e.i, e.j, e.w)).toSeq
    cases.foreach { case (name, v, query) =>
      val reference = Sketch.pairSketches(Sketch.pairStats(Sketch.segments(v, query(0.0))), query(0.0))
        .collect().toSeq.toDS()
      for (beta <- Seq(-1.0, 0.4, 0.7, 0.9)) {
        val qb = query(beta)
        val runs = Seq(
          "Dangoron" -> (Dangoron.run(v, qb), Dangoron.edges(reference, qb)),
          "Tsubasa" -> (Tsubasa.run(v, qb), Tsubasa.edges(reference, qb)))
        runs.foreach { case (framework, ((edges, stats), (refEdges, refStats))) =>
          assert(sorted(edges) === sorted(refEdges), s"$name, $framework, beta=$beta")
          assert(stats() === refStats(), s"$name, $framework, beta=$beta")
        }
      }
    }
    cases.foreach(_._2.unpersist())
  }

  test("accumulators: computed + skipped = pairs × windows") {
    val query = q(0.7)
    val (edges, stats) = Dangoron.run(values, query)
    edges.count()
    val st = stats()
    assert(st.totalWindows === n.toLong * (n - 1) / 2 * query.numWindows)
  }

  test("high beta on noise-dominated pairs skips a large fraction") {
    val query = q(0.95)
    val (edges, stats) = Dangoron.run(values, query)
    edges.count()
    val st = stats()
    assert(st.skippedWindows > 0, "expected some Eq.2 jumps")
    assert(st.skippedFraction > 0.2, s"skipped only ${st.skippedFraction}")
  }

  test("pair-window classification accuracy > 90% vs naive (paper's metric)") {
    val query = q(0.6)
    val (edges, _) = Dangoron.run(values, query)
    val got = edges.collect().map(e => (e.i, e.j, e.w)).toSet
    val truthAll = NaiveCorr.allCorrs(values, query).collect()
    var correct = 0
    truthAll.foreach { e =>
      val predicted = got.contains((e.i, e.j, e.w))
      val actual = e.corr >= query.beta
      if (predicted == actual) correct += 1
    }
    val acc = correct.toDouble / truthAll.length
    assert(acc > 0.9, s"accuracy $acc")
  }

  test("correlated cluster pairs produce sustained edges, noise pairs few") {
    val query = q(0.7)
    val (edges, _) = Dangoron.run(values, query)
    val byPair = edges.collect().groupBy(e => (e.i, e.j)).view.mapValues(_.length).toMap
    val clusterPairs = for (i <- 0 until n / 2; j <- (i + 1) until n / 2) yield (i, j)
    val noisePairs = for (i <- n / 2 until n; j <- (i + 1) until n) yield (i, j)
    val clusterEdges = clusterPairs.map(p => byPair.getOrElse(p, 0)).sum
    val noiseEdges = noisePairs.map(p => byPair.getOrElse(p, 0)).sum
    assert(clusterEdges > 10 * math.max(1, noiseEdges),
      s"cluster=$clusterEdges noise=$noiseEdges — generator or sweep broken")
  }

  // --- Horizontal pruning ----------------------------------------------------
  test("horizontal pruning is lossless (same edges as unpruned)") {
    val query = q(0.7)
    val sketches = Sketch.build(values, query)
    for (w <- Seq(0, 3, 7)) {
      val pruned = HorizontalPrune.edgesForWindow(sketches, query, w, pivot = 0)
      val full = sketches.collect().flatMap { sk =>
        val c = PairMath.windowCorr(sk, query.windowOffsetBw(w), query.nS, query.bwSize)
        if (c >= query.beta) Some(Edge(sk.i, sk.j, w, c)) else None
      }.toSet
      assert(pruned.edges.toSet === full, s"window $w")
    }
  }

  test("horizontal pruning actually prunes pairs at high beta") {
    val query = q(0.9)
    val sketches = Sketch.build(values, query)
    val r = HorizontalPrune.edgesForWindow(sketches, query, w = 0, pivot = 0)
    assert(r.prunedPairs > 0, "no pairs pruned — pivot bound never fired")
    assert(r.prunedPairs + r.computedPairs === n.toLong * (n - 1) / 2)
  }

  test("pivotCorrs returns one exact correlation per other series") {
    val query = q(0.5)
    val sketches = Sketch.build(values, query)
    val pc = HorizontalPrune.pivotCorrs(sketches, query, w = 0, pivot = 2)
    assert(pc.keySet === (0 until n).toSet - 2)
    pc.foreach { case (other, c) =>
      val (i, j) = if (other < 2) (other, 2) else (2, other)
      val direct = PairMath.directPearson(matrix(i), matrix(j), 0, query.windowLen)
      assert(math.abs(c - direct) < 1e-9)
    }
  }

  test("streams of different lengths per window count: step > bwSize") {
    val query = SlidingQuery(0L, len.toLong, windowLen = 48, step = 24, beta = -1.0, bwSize = 8)
    val (edges, stats) = Dangoron.run(values, query)
    val cnt = edges.count()
    assert(cnt === n.toLong * (n - 1) / 2 * query.numWindows)
    assert(stats().totalWindows === cnt)
  }
}
