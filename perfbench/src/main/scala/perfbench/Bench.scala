package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.{Dangoron, Edge, PairSketch, RunStats, Sketch, SlidingQuery}
import repro.tsubasa.Tsubasa

/** One reported number: its name, value, unit and how many samples it
  * summarises.
  */
final case class Metric(name: String, value: Double, unit: String, samples: Int)

/** Outcome of one benchmark run. ``printed`` are reported but not gated;
  * ``errors`` are the first failed checks; ``record`` holds the run's
  * parameters, environment and raw samples; ``spans`` the traced run's spans.
  */
final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric],
                        printed: Seq[Metric], errors: Seq[String], record: Map[String, Any], spans: Seq[Span])

object Bench {

  /** End-to-end metrics, reported by every untraced run. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "op_cpu_s" -> "s", "edge_recall" -> "ratio", "peak_rss_mb" -> "MB")

  /** Layers the listener attributes Spark stage work to. */
  val SparkLayers: Seq[String] = Seq("segments", "pairstats", "assemble", "sweep", "output")

  /** Per-layer metrics, reported by every traced run. */
  val PerLayer: Seq[(String, String)] = Seq(
    "data.gen_s" -> "s", "data.rows" -> "count",
    "sketch.segments_s" -> "s", "sketch.segments_rows" -> "count",
    "sketch.pairstats_s" -> "s", "sketch.pairbw_rows" -> "count",
    "sketch.assemble_s" -> "s", "sketch.pairs" -> "count", "sketch.cache_mb" -> "MB",
    "sweep.s" -> "s", "sweep.computed_windows" -> "count", "sweep.skipped_windows" -> "count",
    "sweep.skip_frac" -> "ratio", "sweep.edges_per_computed" -> "ratio",
    "output.s" -> "s", "output.edges" -> "count") ++
    SparkLayers.flatMap(l => Seq(
      s"$l.task_s" -> "s", s"$l.gc_s" -> "s", s"$l.sched_wait_s" -> "s", s"$l.tasks" -> "count",
      s"$l.shuffle_read_mb" -> "MB", s"$l.shuffle_write_mb" -> "MB", s"$l.spill_mb" -> "MB")) ++ Seq(
    "ref.exact_s" -> "s", "ref.tsubasa_s" -> "s", "ref.speedup_vs_tsubasa" -> "ratio",
    "trace.overhead_s" -> "s")

  /** Set-ups per untraced run; ``setup_s`` reports their median. The
    * session is started once per process, so its start-up time, which
    * varies most with the host's load, is printed on its own.
    */
  val SetupReps: Int = 3

  def run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double, trace: Boolean,
          sessionS: Double): Result =
    new Run(spark, wl, seed, seconds).execute(trace, sessionS)

  def cpuNs(): Long = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** Steal time of all CPUs, in 1/100 s, from the first line of /proc/stat. */
  def stealJiffies(): Long = firstLine("/proc/stat", _.startsWith("cpu ")).split("\\s+")(8).toLong

  def peakRssMb(): Double = firstLine("/proc/self/status", _.startsWith("VmHWM:")).split("\\s+")(1).toDouble / 1024.0

  private def firstLine(path: String, p: String => Boolean): String = {
    val src = scala.io.Source.fromFile(path)
    try src.getLines().find(p).getOrElse(throw new IllegalStateException(s"no such line in $path"))
    finally src.close()
  }
}

/** The cached inputs of one set-up: the rows and, on a sketch-once
  * workload, the pair sketches.
  */
final case class Inputs(values: DataFrame, rows: Long, sketch: Option[Dataset[PairSketch]]) {
  def release(): Unit = {
    sketch.foreach(_.unpersist(blocking = true))
    values.unpersist(blocking = true)
  }
}

/** One operation's outcome. ``cpuS`` is the JVM's CPU time during it (in
  * 10 ms ticks, so only sums over many operations are precise) and
  * ``stealS`` the machine's steal time summed over CPUs, which shows when
  * the host, not the program, made an operation slow.
  */
final case class OpResult(query: Int, seconds: Double, edges: Long, stats: RunStats, cpuS: Double, stealS: Double)

private final class Run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double) {
  import Bench._

  private val sc = spark.sparkContext
  private val n = wl.source.n
  private val nPairs = Reference.numPairs(n).toLong

  private var attempted = 0L
  private var failed = 0L
  private var hits = 0L
  private var exact = 0L
  private val errors = ArrayBuffer.empty[String]
  private val firstSeen = mutable.Map.empty[(String, Int), (Long, Long, Long)]
  private val counters = mutable.Map.empty[String, Double]

  // Exact answers, filled from the raw matrix after set-up.
  private var matrix: Array[Array[Double]] = _
  private var tables: Map[(Int, Int), Array[Double]] = Map.empty
  private var exactCounts: IndexedSeq[Long] = IndexedSeq.empty

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  // ---------------------------------------------------------------- set-up

  /** Generate and cache the rows; on a sketch-once workload also build and
    * cache the sketch (through the layers when traced).
    */
  private def setup(tracer: Option[Tracer]): Inputs = {
    def span[T](name: String)(f: => T): T = tracer.fold(f)(_.span(name)(f))
    span("setup") {
      val (values, rows) = span("data") {
        val v = wl.source.generate(spark, seed).persist(StorageLevel.MEMORY_ONLY)
        (v, v.count())
      }
      val sketch = if (!wl.sketchOnce) None else Some(tracer match {
        case Some(tr) => layeredSketch(tr, values, wl.base)
        case None =>
          val sk = Sketch.build(values, wl.base).persist(StorageLevel.MEMORY_ONLY)
          sk.count()
          sk
      })
      Inputs(values, rows, sketch)
    }
  }

  /** The sketch built one stage at a time, each stage cached and counted
    * inside its own span. This is the only place that calls the sketch's
    * internal stages; the untraced path calls only ``Sketch.build`` and
    * ``Dangoron.run``.
    */
  private def layeredSketch(tr: Tracer, values: DataFrame, q: SlidingQuery): Dataset[PairSketch] =
    tr.span("sketch") {
      val segs = tr.span("segments") {
        val s = Sketch.segments(values, q).persist(StorageLevel.MEMORY_ONLY)
        counters("segments_rows") = s.count().toDouble
        s
      }
      val pairBw = tr.span("pairstats") {
        val p = Sketch.pairStats(segs).persist(StorageLevel.MEMORY_ONLY)
        counters("pairbw_rows") = p.count().toDouble
        p
      }
      val cachedBefore = sc.getRDDStorageInfo.map(_.id).toSet
      val sk = tr.span("assemble") {
        val k = Sketch.pairSketches(pairBw, q).persist(StorageLevel.MEMORY_ONLY)
        counters("pairs") = k.count().toDouble
        k
      }
      counters("cache_mb") = sc.getRDDStorageInfo.filterNot(r => cachedBefore(r.id))
        .map(r => r.memSize + r.diskSize).sum / 1048576.0
      pairBw.unpersist(blocking = true)
      segs.unpersist(blocking = true)
      sk
    }

  /** The raw matrix the program was given, and the exact answer to every
    * query of the pass. Not timed and not part of set-up.
    */
  private def buildReference(values: DataFrame): Unit = {
    val len = wl.source.length
    matrix = Array.fill(n)(new Array[Double](len))
    values.collect().foreach { r => matrix(r.getInt(0))(r.getLong(1).toInt) = r.getDouble(2) }
    tables = wl.pass.map(q => (q.windowLen, q.step)).distinct.map { shape =>
      val q = wl.pass.find(p => (p.windowLen, p.step) == shape).get
      val table = Reference.corrTable(matrix, q)
      val worst = Reference.spotCheck(matrix, q, table)
      require(worst <= Reference.Tol,
        s"exact reference disagrees with Sweep.naive by $worst for window ${q.windowLen}, step ${q.step}")
      shape -> table
    }.toMap
    exactCounts = wl.pass.toIndexedSeq.map(q => Reference.exactEdges(table(q), q.beta))
  }

  private def table(q: SlidingQuery): Array[Double] = tables((q.windowLen, q.step))

  // ------------------------------------------------------------ operations

  /** Run query ``qi`` once, time it, and check its output. */
  private def op(in: Inputs, qi: Int, tracer: Option[Tracer]): OpResult = {
    val q = wl.pass(qi)
    val cpu0 = cpuNs()
    val steal0 = stealJiffies()
    val ((edges, stats), secs) = timed {
      tracer match {
        case None =>
          val (ds, st) = in.sketch match {
            case Some(sk) => Dangoron.edges(sk, q)
            case None => Dangoron.run(in.values, q)
          }
          val e = ds.collect()
          (e, st())
        case Some(tr) =>
          tr.span(if (wl.sketchOnce) "query" else "job") {
            val sk = in.sketch.getOrElse(layeredSketch(tr, in.values, q))
            val (cached, st) = tr.span("sweep") {
              val (ds, st) = Dangoron.edges(sk, q)
              val c = ds.persist(StorageLevel.MEMORY_ONLY)
              c.count()
              (c, st())
            }
            val e = tr.span("output")(cached.collect())
            cached.unpersist(blocking = true)
            if (in.sketch.isEmpty) sk.unpersist(blocking = true)
            (e, st)
          }
      }
    }
    val cpuS = (cpuNs() - cpu0) / 1e9
    val stealS = (stealJiffies() - steal0) / 100.0
    verify("dangoron", qi, q, edges, stats)
    OpResult(qi, secs, edges.length.toLong, stats, cpuS, stealS)
  }

  /** Check one operation's edges against the exact answer and its counters
    * against the first run of the same query by the same framework. Only
    * Dangoron's operations count toward the recall.
    */
  private def verify(framework: String, qi: Int, q: SlidingQuery, edges: Array[Edge], stats: RunStats): Unit = {
    attempted += 1
    val c = Reference.check(edges, q, n, table(q))
    val signature = (c.edges, stats.computedWindows, stats.skippedWindows)
    val error = c.error
      .orElse(Option.when(stats.totalWindows != nPairs * q.numWindows)(
        s"computed + skipped = ${stats.totalWindows}, expected ${nPairs * q.numWindows}"))
      .orElse(firstSeen.get((framework, qi)).filter(_ != signature).map(first =>
        s"$framework query $qi: (edges, computed, skipped) = $signature, first run gave $first"))
    firstSeen.getOrElseUpdate((framework, qi), signature)
    if (framework == "dangoron") {
      hits += c.hits
      exact += exactCounts(qi)
    }
    error.foreach { e => failed += 1; if (errors.length < 10) errors += e }
  }

  /** One pass over the workload's queries, after a full GC so that no
    * collection of an earlier pass's garbage lands inside it.
    */
  private def pass(in: Inputs, tracer: Option[Tracer]): Seq[OpResult] = {
    System.gc()
    wl.pass.indices.map(qi => op(in, qi, tracer))
  }

  /** Whole passes until their operations have taken ``budget`` seconds. */
  private def passesFor(in: Inputs, budget: Double, tracer: Option[Tracer]): Seq[OpResult] = {
    val out = ArrayBuffer.empty[OpResult]
    while (out.map(_.seconds).sum < budget) out ++= pass(in, tracer)
    out.toSeq
  }

  /** Passes before timing starts. JIT compilation and Spark's code
    * generation make a process's first job about four times slower than
    * its tenth, and CPU time per operation keeps falling for about ten
    * jobs or thirty queries.
    */
  private def warmUp(in: Inputs): Seq[OpResult] =
    (1 to (if (wl.sketchOnce) 2 else 5)).flatMap(_ => pass(in, None))

  // ------------------------------------------------------------- the runs

  def execute(trace: Boolean, sessionS: Double): Result =
    if (trace) traced() else untraced(sessionS)

  private def untraced(sessionS: Double): Result = {
    val setups = (1 to SetupReps).map { _ => timed(setup(None)) }
    setups.init.foreach(_._1.release())
    val in = setups.last._1
    val (_, referenceS) = timed(buildReference(in.values))
    val warm = warmUp(in)
    val ops = passesFor(in, seconds, None)
    val opSecs = ops.map(_.seconds)
    val pairWindows = ops.map(o => nPairs * wl.pass(o.query).numWindows).sum
    // CPU time per operation is gated rather than wall time: when the host
    // takes CPUs away from the VM (steal), a short query's wall time rises
    // by up to 60% while the JVM's CPU time rises by about 15%.
    val metrics = Seq(
      Metric("setup_s", Stats.median(setups.map(_._2)), "s", setups.length),
      Metric("op_cpu_s", ops.map(_.cpuS).sum / ops.length, "s", ops.length),
      Metric("edge_recall", recall, "ratio", attempted.toInt),
      Metric("peak_rss_mb", peakRssMb(), "MB", 1))
    val tail = Stats.tail(opSecs)
    val printed = Seq(
      Metric("session_s", sessionS, "s", 1),
      Metric("op_s_p50", Stats.median(opSecs), "s", ops.length),
      Metric(tail.fold("op_s_tail")(t => f"op_s_tail_p${t.percentile * 100}%.1f"),
        tail.fold(Double.NaN)(_.value), "s", ops.length),
      Metric("pairwin_per_s", pairWindows / opSecs.sum, "1/s", ops.length),
      Metric("steal_frac", ops.map(_.stealS).sum / (opSecs.sum * Runtime.getRuntime.availableProcessors()),
        "ratio", ops.length),
      Metric("fail_frac", failed.toDouble / attempted, "ratio", attempted.toInt))
    result(metrics, printed, Nil, Map(
      "session_s" -> sessionS,
      "reference_s" -> referenceS,
      "setup_s_samples" -> setups.map(_._2),
      "warmup_op_s" -> warm.map(_.seconds),
      "op_s" -> opSecs,
      "op_cpu_s" -> ops.map(_.cpuS), "op_steal_s" -> ops.map(_.stealS),
      "op_query" -> ops.map(_.query),
      "op_s_tail" -> tail.map(t => Map("value" -> t.value, "percentile" -> t.percentile, "beyond" -> t.beyond))
        .getOrElse("fewer than 20 samples")))
  }

  private def traced(): Result = {
    val listener = new LayerListener
    sc.addSparkListener(listener)
    val tracer = new Tracer(Some(sc))
    val in = setup(Some(tracer))
    buildReference(in.values)
    warmUp(in)
    // Untraced operations give the baseline for the tracing overhead; one
    // traced pass without job groups warms the traced path's extra caching.
    val plain = passesFor(in, seconds / 2, None)
    pass(in, Some(new Tracer(None)))
    val ops = passesFor(in, seconds, Some(tracer))
    val refs = references(in)
    listener.drain(sc, tracer.groups)
    sc.removeSparkListener(listener)

    val spans = tracer.spans
    val self = Tracer.selfSeconds(spans)
    def selfMedian(name: String): (Double, Int) = {
      val xs = spans.filter(_.name == name).map(s => self(s.id))
      (if (xs.isEmpty) Double.NaN else Stats.median(xs), xs.length)
    }
    def spanMetric(metric: String, span: String): Metric = {
      val (v, k) = selfMedian(span)
      Metric(metric, v, "s", k)
    }
    val k = ops.length
    val computed = ops.map(_.stats.computedWindows).sum.toDouble
    val skipped = ops.map(_.stats.skippedWindows).sum.toDouble
    val edges = ops.map(_.edges).sum.toDouble
    val builds = spans.count(_.name == "sketch")
    val layerMetrics = SparkLayers.flatMap { l =>
      val t = listener.totalsFor(tracer.group(l))
      val m = math.max(1, spans.count(_.name == l)).toDouble
      Seq(
        Metric(s"$l.task_s", t.taskS / m, "s", m.toInt),
        Metric(s"$l.gc_s", t.gcS / m, "s", m.toInt),
        Metric(s"$l.sched_wait_s", t.schedWaitS / m, "s", m.toInt),
        Metric(s"$l.tasks", t.tasks / m, "count", m.toInt),
        Metric(s"$l.shuffle_read_mb", t.shuffleReadBytes / m / 1048576.0, "MB", m.toInt),
        Metric(s"$l.shuffle_write_mb", t.shuffleWriteBytes / m / 1048576.0, "MB", m.toInt),
        Metric(s"$l.spill_mb", t.spillBytes / m / 1048576.0, "MB", m.toInt))
    }
    val tracedMedian = Stats.median(ops.map(_.seconds))
    val plainMedian = Stats.median(plain.map(_.seconds))
    val metrics = Seq(
      spanMetric("data.gen_s", "data"),
      Metric("data.rows", in.rows.toDouble, "count", 1),
      spanMetric("sketch.segments_s", "segments"),
      Metric("sketch.segments_rows", counters("segments_rows"), "count", builds),
      spanMetric("sketch.pairstats_s", "pairstats"),
      Metric("sketch.pairbw_rows", counters("pairbw_rows"), "count", builds),
      spanMetric("sketch.assemble_s", "assemble"),
      Metric("sketch.pairs", counters("pairs"), "count", builds),
      Metric("sketch.cache_mb", counters("cache_mb"), "MB", 1),
      spanMetric("sweep.s", "sweep"),
      Metric("sweep.computed_windows", computed / k, "count", k),
      Metric("sweep.skipped_windows", skipped / k, "count", k),
      Metric("sweep.skip_frac", skipped / (computed + skipped), "ratio", k),
      Metric("sweep.edges_per_computed", edges / computed, "ratio", k),
      spanMetric("output.s", "output"),
      Metric("output.edges", edges / k, "count", k)) ++
      layerMetrics ++ refs ++ Seq(
      Metric("trace.overhead_s", tracedMedian - plainMedian, "s", k + plain.length))
    result(metrics, Nil, spans, Map(
      "untraced_op_s" -> plain.map(_.seconds),
      "traced_op_s" -> ops.map(_.seconds),
      "op_query" -> ops.map(_.query)))
  }

  /** Reference numbers on ``refQuery``: TSUBASA and Dangoron over the same
    * cached sketch (query time only), and the benchmark's exact sweep
    * from the raw matrix on one thread.
    */
  private def references(in: Inputs): Seq[Metric] = {
    val q = wl.refQuery
    val qi = wl.pass.indexOf(q)
    val sk = in.sketch.getOrElse {
      val s = Sketch.build(in.values, q).persist(StorageLevel.MEMORY_ONLY)
      s.count()
      s
    }
    def best(framework: String)(f: => (Dataset[Edge], () => RunStats)): Double =
      (1 to 2).map { _ =>
        System.gc()
        val ((edges, st), secs) = timed { val (ds, st) = f; (ds.collect(), st) }
        verify(framework, qi, q, edges, st())
        secs
      }.min
    val tsubasaS = best("tsubasa")(Tsubasa.edges(sk, q))
    val dangoronS = best("dangoron")(Dangoron.edges(sk, q))
    val (_, exactS) = timed(Reference.exactEdges(Reference.corrTable(matrix, q), q.beta))
    if (in.sketch.isEmpty) sk.unpersist(blocking = true)
    Seq(
      Metric("ref.exact_s", exactS, "s", 1),
      Metric("ref.tsubasa_s", tsubasaS, "s", 2),
      Metric("ref.speedup_vs_tsubasa", tsubasaS / dangoronS, "ratio", 2))
  }

  private def recall: Double = if (exact == 0L) 1.0 else hits.toDouble / exact

  private def result(metrics: Seq[Metric], printed: Seq[Metric], spans: Seq[Span],
                     samples: Map[String, Any]): Result = {
    val record = Map[String, Any](
      "workload" -> wl.name,
      "source" -> wl.source.describe,
      "queries" -> wl.pass.map(q => Map("window" -> q.windowLen, "step" -> q.step, "beta" -> q.beta,
        "bw" -> q.bwSize, "start" -> q.start, "end" -> q.end, "windows" -> q.numWindows)),
      "sketch_once" -> wl.sketchOnce,
      "seed" -> seed,
      "seconds" -> seconds,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "heap_max_mb" -> Runtime.getRuntime.maxMemory() / 1048576.0,
      "spark" -> spark.version,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.sourceDigest", "unknown"),
      "attempted" -> attempted, "failed" -> failed, "errors" -> errors.toSeq,
      "exact_edges" -> exact, "returned_exact_edges" -> hits,
      "counters" -> firstSeen.toSeq.sortBy(_._1).map { case ((framework, qi), (e, c, s)) =>
        Map("framework" -> framework, "query" -> qi, "edges" -> e, "computed" -> c, "skipped" -> s)
      }) ++ samples
    Result(failed == 0L, attempted, failed, metrics, printed, errors.toSeq, record, spans)
  }
}
