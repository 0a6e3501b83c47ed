package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.util.LongAccumulator

/** Work counters for one Dangoron (or TSUBASA) run. Valid only after an
  * action has materialized the edge Dataset.
  */
final case class RunStats(computedWindows: Long, skippedWindows: Long) {
  def totalWindows: Long = computedWindows + skippedWindows
  def skippedFraction: Double =
    if (totalWindows == 0) 0.0 else skippedWindows.toDouble / totalWindows
}

/** Dangoron on Spark: the per-pair jump sweep parallelized across the
  * N(N−1)/2 pairs. Pairs are independent, so this is the natural
  * distribution axis; Spark accumulators surface how much work the Eq. 2
  * jumps eliminated.
  */
object Dangoron {

  /** Edges (corr ≥ β) of a typed ``flatMap`` over cached pair sketches,
    * plus a stats thunk (read it after an action).
    */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Dataset[Edge], () => RunStats) = {
    val spark = sketches.sparkSession
    import spark.implicits._
    val (sweep, stats) = sweeper(spark, q)
    (sketches.flatMap(sweep), stats)
  }

  /** Raw values → edges in one job: each pair is swept inside the block-pair
    * task that computes its sketch ([[Sketch.tilePairs]]), so the tasks emit
    * only edges and counters. Same edges and [[RunStats]] as [[edges]] over
    * [[Sketch.build]].
    */
  def run(values: DataFrame, q: SlidingQuery): (Dataset[Edge], () => RunStats) = {
    val spark = values.sparkSession
    import spark.implicits._
    val (sweep, stats) = sweeper(spark, q)
    (spark.createDataset(Sketch.tilePairs(values, q).flatMap(sweep)), stats)
  }

  /** The per-pair sweep, counting computed and skipped windows in fresh
    * accumulators, and the stats thunk that reads them.
    */
  private def sweeper(spark: SparkSession, q: SlidingQuery): (PairSketch => Vector[Edge], () => RunStats) = {
    val computed: LongAccumulator = spark.sparkContext.longAccumulator("dangoron.computedWindows")
    val skipped: LongAccumulator = spark.sparkContext.longAccumulator("dangoron.skippedWindows")
    val sweep = (sk: PairSketch) => {
      val r = Sweep.dangoron(sk, q)
      computed.add(r.computed)
      skipped.add(r.skipped)
      r.edges.map { case (w, c) => Edge(sk.i, sk.j, w, c) }
    }
    (sweep, () => RunStats(computed.value, skipped.value))
  }
}
