package repro.tsubasa

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core._

/** TSUBASA baseline (Xu, Liu, Nargesian, SIGMOD '22), reimplemented from
  * its published algorithm: exact pairwise correlation on arbitrary time
  * windows recombined from basic-window sketches.
  *
  * TSUBASA's sketches are the same substrate Dangoron uses
  * ([[repro.core.Sketch]]); what it lacks — per the paper under
  * reproduction — is efficiency on *sliding* queries: every window of the
  * slide is recombined from scratch (O(n_s) per pair per window), with no
  * cross-window jump or reuse. That contrast is exactly what Table 1
  * measures.
  */
object Tsubasa {

  /** Sliding query over cached pair sketches: every window evaluated,
    * entries < β dropped.
    */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Dataset[Edge], () => RunStats) = {
    val spark = sketches.sparkSession
    import spark.implicits._
    val (sweep, stats) = sweeper(spark, q)
    (sketches.flatMap(sweep), stats)
  }

  /** Raw values → edges in one job, each pair swept inside the block-pair
    * task that computes its sketch ([[repro.core.Sketch.tilePairs]]). Same
    * edges and [[repro.core.RunStats]] as [[edges]] over
    * [[repro.core.Sketch.build]].
    */
  def run(values: DataFrame, q: SlidingQuery): (Dataset[Edge], () => RunStats) = {
    val spark = values.sparkSession
    import spark.implicits._
    val (sweep, stats) = sweeper(spark, q)
    (spark.createDataset(Sketch.tilePairs(values, q).flatMap(sweep)), stats)
  }

  /** The per-pair sweep, counting windows in a fresh accumulator, and the
    * stats thunk that reads it.
    */
  private def sweeper(spark: SparkSession, q: SlidingQuery): (PairSketch => Vector[Edge], () => RunStats) = {
    val computed = spark.sparkContext.longAccumulator("tsubasa.computedWindows")
    val sweep = (sk: PairSketch) => {
      val r = Sweep.tsubasa(sk, q)
      computed.add(r.computed)
      r.edges.map { case (w, c) => Edge(sk.i, sk.j, w, c) }
    }
    (sweep, () => RunStats(computed.value, 0L))
  }

  /** TSUBASA's headline capability: an ad-hoc window query — the exact
    * correlation of every pair over basic windows [fromBw, fromBw + nBws).
    */
  def adhocWindow(sketches: Dataset[PairSketch], q: SlidingQuery,
                  fromBw: Int, nBws: Int): Dataset[(Int, Int, Double)] = {
    val spark = sketches.sparkSession
    import spark.implicits._
    require(fromBw >= 0 && fromBw + nBws <= q.nBw, "ad-hoc window out of range")
    val b = q.bwSize
    sketches.map(sk => (sk.i, sk.j, PairMath.windowCorr(sk, fromBw, nBws, b)))
  }
}
