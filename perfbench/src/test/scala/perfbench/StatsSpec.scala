package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("nearest-rank percentiles") {
    val xs = (1 to 10).map(_.toDouble)
    assert(Stats.median(xs) === 5.0)
    assert(Stats.percentile(xs, 0.9) === 9.0)
    assert(Stats.percentile(xs, 1.0) === 10.0)
    assert(Stats.percentile(Seq(3.0), 0.5) === 3.0)
  }

  test("the tail is the highest ladder percentile with at least ten samples beyond it") {
    assert(Stats.tailPercentile(19) === None)
    assert(Stats.tailPercentile(20) === Some(0.5))
    assert(Stats.tailPercentile(39) === Some(0.5))
    assert(Stats.tailPercentile(40) === Some(0.75))
    assert(Stats.tailPercentile(99) === Some(0.75))
    assert(Stats.tailPercentile(100) === Some(0.9))
    assert(Stats.tailPercentile(200) === Some(0.95))
    assert(Stats.tailPercentile(1000) === Some(0.99))
  }

  test("tail reports its value, percentile and the samples beyond it") {
    val xs = (1 to 40).map(_.toDouble).reverse
    val t = Stats.tail(xs).get
    assert(t === Stats.Tail(30.0, 0.75, 10))
    assert(xs.count(_ > t.value) === t.beyond)
    assert(Stats.tail(xs.take(19)) === None)
  }
}
