package perfbench

/** Order statistics for timings: nearest-rank percentiles and the tail
  * rule "the highest percentile with at least ten samples beyond it".
  */
object Stats {

  /** Percentiles the tail rule may pick, lowest first. */
  val Ladder: Seq[Double] = Seq(0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

  /** Samples the tail percentile must leave beyond it. */
  val TailBeyond: Int = 10

  /** Nearest-rank percentile: the smallest sample with at least ``p·n``
    * samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val sorted = xs.sorted
    sorted(rank(xs.length, p) - 1)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** 1-based nearest rank of percentile ``p`` among ``n`` samples. */
  def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p * n - 1e-9).toInt)

  /** Samples strictly after the nearest rank of ``p``. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** The tail percentile of ``n`` samples: the highest ladder entry with at
    * least [[TailBeyond]] samples beyond it, or ``None`` when even the
    * median has fewer (fewer than 20 samples).
    */
  def tailPercentile(n: Int): Option[Double] =
    Ladder.filter(p => beyond(n, p) >= TailBeyond).lastOption

  /** Tail value, its percentile and the samples beyond it. */
  final case class Tail(value: Double, percentile: Double, beyond: Int)

  def tail(xs: Seq[Double]): Option[Tail] =
    tailPercentile(xs.length).map(p => Tail(percentile(xs, p), p, beyond(xs.length, p)))
}
