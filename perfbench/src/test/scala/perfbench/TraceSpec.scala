package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private val s = 1000000000L

  test("self time subtracts the union of the children's intervals") {
    val spans = Seq(
      Span(0, -1, "job", 0, 10 * s),
      Span(1, 0, "a", 1 * s, 3 * s),
      Span(2, 0, "b", 2 * s, 5 * s), // overlaps a: [1, 5] is covered once
      Span(3, 0, "c", 7 * s, 8 * s),
      Span(4, 3, "d", 7 * s, 8 * s))
    val self = Tracer.selfSeconds(spans)
    assert(self(0) === 5.0)
    assert(self(1) === 2.0)
    assert(self(2) === 3.0)
    assert(self(3) === 0.0)
    assert(self(4) === 1.0)
  }

  test("a child sticking out of its parent only covers the overlap") {
    val self = Tracer.selfSeconds(Seq(Span(0, -1, "p", 0, 4 * s), Span(1, 0, "c", 3 * s, 6 * s)))
    assert(self(0) === 3.0)
  }

  test("spans record their parent and nest") {
    val tr = new Tracer(None)
    val r = tr.span("outer") { tr.span("inner")(1) + tr.span("inner")(2) }
    assert(r === 3)
    val spans = tr.spans
    assert(spans.map(_.name) === Seq("outer", "inner", "inner"))
    assert(spans.map(_.parent) === Seq(-1, 0, 0))
    assert(spans.forall(sp => sp.endNs >= sp.startNs))
    assert(tr.groups === Set(tr.group("outer"), tr.group("inner")))
    assert(tr.group("inner") != new Tracer(None).group("inner"))
  }
}
