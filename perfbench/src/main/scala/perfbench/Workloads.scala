package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.SlidingQuery
import repro.data.ClimateData
import repro.tomborg.{PowerLaw, Spectrum, Tomborg, TomborgSpec}

/** Where a workload's ``(sid, t, v)`` rows come from. The seed is the
  * benchmark's argument; the program only sees the generated rows.
  */
sealed trait Source {
  def n: Int
  def length: Int
  def generate(spark: SparkSession, seed: Long): DataFrame
  def describe: Map[String, Any]
}

/** Synthetic USCRN-like hourly station data, one region per ~10 stations
  * (at least 8), as in the paper's evaluation workload.
  */
final case class Climate(n: Int, length: Int) extends Source {
  private def spec(seed: Long) = ClimateData.Spec(nStations = n, hours = length,
    nRegions = math.max(1, math.min(n, math.max(8, n / 10))), seed = seed)
  def generate(spark: SparkSession, seed: Long): DataFrame = ClimateData.hourly(spark, spec(seed))
  def describe: Map[String, Any] =
    Map("generator" -> "ClimateData", "n" -> n, "hours" -> length, "regions" -> spec(0L).nRegions)
}

/** Tomborg data with a clustered correlation structure. */
final case class TomborgData(n: Int, length: Int, clusters: Int, rho: Double, spectrum: Spectrum) extends Source {
  def generate(spark: SparkSession, seed: Long): DataFrame =
    Tomborg.generate(spark, TomborgSpec(n, length, clusters, rho, spectrum, seed))
  def describe: Map[String, Any] = Map("generator" -> "Tomborg", "n" -> n, "length" -> length,
    "clusters" -> clusters, "rho" -> rho, "spectrum" -> spectrum.toString)
}

/** A benchmark workload. ``base`` fixes the query range and basic window,
  * and so the sketch. One pass runs every query of ``pass`` once. When
  * ``sketchOnce`` holds, the sketch is built in set-up and each operation
  * is one query over it; otherwise each operation is one whole job, rows to
  * edges. ``refQuery`` is the query the traced run times the reference
  * baselines on.
  */
final case class Workload(name: String, source: Source, base: SlidingQuery,
                          pass: Seq[SlidingQuery], refQuery: SlidingQuery, sketchOnce: Boolean)

object Workloads {

  val Names: Seq[String] = Seq("climate-build", "climate-requery", "tomborg-lowfreq")

  /** The workload named ``name``; ``toy`` shrinks the data to seconds of
    * work with the same query shapes (tests, smoke runs).
    */
  def byName(name: String, toy: Boolean = false): Workload = name match {
    case "climate-build" =>
      // One year hourly, daily basic windows, 30-day windows sliding daily:
      // 336 windows. Sketch construction does nearly all of the job's work.
      val hours = if (toy) 24 * 60 else 8760
      val q = SlidingQuery(0L, hours.toLong, windowLen = 720, step = 24, beta = 0.7, bwSize = 24)
      Workload(name, Climate(if (toy) 6 else 64, hours), q, Seq(q), q, sketchOnce = false)
    case "climate-requery" =>
      // Two years hourly at 12-h basic windows, sketch built once; a pass is
      // 18 queries that differ in beta, window length and step.
      val hours = if (toy) 24 * 120 else 17520
      val base = SlidingQuery(0L, hours.toLong, windowLen = 720, step = 12, beta = 0.7, bwSize = 12)
      val pass = for (beta <- Seq(0.5, 0.7, 0.9); days <- Seq(30, 60, 90); step <- Seq(12, 24))
        yield base.copy(windowLen = days * 24, step = step, beta = beta)
      Workload(name, Climate(if (toy) 5 else 40, hours), base, pass,
        base.copy(windowLen = 60 * 24, step = 12, beta = 0.7), sketchOnce = true)
    case "tomborg-lowfreq" =>
      // A 1/f^1.5 spectrum breaks Eq. 2's stability assumption, so skips
      // cost recall; 481 windows of 1,024 steps sliding 32.
      val len = if (toy) 2048 else 16384
      val q = SlidingQuery(0L, len.toLong, windowLen = 1024, step = 32, beta = 0.6, bwSize = 32)
      Workload(name, TomborgData(if (toy) 6 else 48, len, if (toy) 2 else 8, 0.8, PowerLaw(1.5)), q, Seq(q), q,
        sketchOnce = false)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other'; expected one of ${Names.mkString(", ")}")
  }
}
