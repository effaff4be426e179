package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.UniFi
import repro.sim.ClxSim

class HelpersSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("quartiles agree with Python's statistics.quantiles(n=4)") {
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(3.0, 1.0, 2.0)) == ((1.0, 2.0, 3.0)))
    assert(Stats.quartiles(Seq(5.0, 1.0)) == ((0.0, 3.0, 6.0)))
  }

  test("nearest-rank percentiles") {
    val xs = (1 to 47).map(_.toDouble).reverse
    assert(Stats.percentile(xs, 50) == 24.0)
    assert(Stats.percentile(xs, 90) == 43.0)
    assert(Stats.percentile(xs, 100) == 47.0)
    assert(Stats.percentile(Seq(7.0), 90) == 7.0)
    assertThrows[IllegalArgumentException](Stats.percentile(xs, 0))
  }

  test("covered time is the union of overlapping intervals") {
    assert(Trace.coveredNs(Seq((0L, 10L), (5L, 15L), (20L, 30L))) == 25)
    assert(Trace.coveredNs(Seq((20L, 30L), (0L, 40L))) == 40)
    assert(Trace.coveredNs(Nil) == 0)
  }

  test("self time is duration minus the coverage of direct children") {
    val spans = Seq(
      Span(0, -1, "pass", 0, 100),
      Span(1, 0, "cluster", 10, 40),
      Span(2, 1, "dist.leaf_clusters", 15, 35),
      Span(3, 0, "apply_verify", 30, 60), // overlaps its sibling by 10
      Span(4, 0, "cluster", 70, 80),
    ).map(s => s.copy(startNs = s.startNs * 1000000000L, endNs = s.endNs * 1000000000L))
    val self = Trace.selfSeconds(spans)
    assert(self("pass") == 100 - 60)
    assert(self("cluster") == (30 - 20) + 10)
    assert(self("dist.leaf_clusters") == 20)
    assert(self("apply_verify") == 30)
    assert(Trace.totalSeconds(spans)("cluster") == 40)
  }

  test("tracer nests spans and counts; a disabled tracer records nothing") {
    val on = new Tracer(enabled = true)
    val v = on.span("a") { on.add("n", 2); on.span("b")(on.add("n")); 7 }
    assert(v == 7)
    val Seq(b, a) = on.spans
    assert(a.name == "a" && a.parent == -1 && b.name == "b" && b.parent == a.id)
    assert(a.startNs <= b.startNs && b.endNs <= a.endNs)
    assert(on.counters == Map("n" -> 3.0))

    val off = new Tracer(enabled = false)
    assert(off.span("a") { off.add("n"); 1 } == 1)
    assert(off.spans.isEmpty && off.counters.isEmpty)
  }

  test("a span is closed when its body throws") {
    val tr = new Tracer(enabled = true)
    assertThrows[RuntimeException](tr.span("boom")(throw new RuntimeException("x")))
    tr.span("after")(())
    assert(tr.spans.map(s => s.name -> s.parent) == Vector("boom" -> -1, "after" -> -1))
  }

  test("JSON writer escapes strings and keeps field order") {
    assert(Json.string("a\"b\\c\n\u0001") == "\"a\\\"b\\\\c\\n\\u0001\"")
    assert(Json.obj("z" -> 1, "a" -> Seq(true, 2.5, "x"), "m" -> Map("k" -> 3L)) ==
      "{\"z\": 1, \"a\": [true, 2.5, \"x\"], \"m\": {\"k\": 3}}")
    assertThrows[IllegalArgumentException](Json.value(Double.NaN))
  }

  test("the result line carries correctness, operations and units") {
    val t = new Tally
    t.check("ok")(true)
    val line = Metrics.resultLine(t, Seq("total_s" -> "s"), Map("total_s" -> 1.25))
    assert(line == "{\"correct\": true, \"attempted\": 1, \"failed\": 0, " +
      "\"metrics\": {\"total_s\": {\"value\": 1.25, \"unit\": \"s\"}}}")
  }

  test("failed and throwing checks are counted, not thrown") {
    val t = new Tally
    assert(t.check("passes")(true))
    assert(!t.check("fails")(false))
    assert(!t.check("throws")(throw new IllegalStateException("bad")))
    assert(t.guard("operation")(sys.error("broken")).isEmpty)
    assert(t.guard("operation")(5).contains(5))
    assert((t.attempted, t.failed) == ((4, 3)))
  }

  private val phones = Seq(
    "(212) 555-0123" -> "(212) 555-0123",
    "(415) 555-0100" -> "(415) 555-0100",
    "212.555.0199" -> "(212) 555-0199",
    "646.555.0142" -> "(646) 555-0142",
  )

  test("a deliberately wrong program fails the output check and is counted") {
    val right = ClxSim.run(phones).program
    val wrong = right.copy(branches = right.branches.map(_.copy(plan = UniFi.Plan(Vector(UniFi.Extract(1))))))
    val t = new Tally
    val checks = Seq(right, wrong).map { p =>
      t.check("every row as expected")(CorpusWorkload.applyAndList(p, phones)._1 == phones.size)
    }
    assert(checks == Seq(true, false))
    assert((t.attempted, t.failed) == ((2, 1)))
    assert(CorpusWorkload.applyAndList(right, phones)._2 == 1)
  }

  test("every metric has one name and a unit") {
    val names = (Metrics.endToEnd ++ Metrics.perLayer).map(_._1)
    assert(names.distinct.size == names.size)
    assert(names.forall(_.matches("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")))
  }

  test("the pinned corpus reference covers 47 tasks, 42 of them perfect") {
    val ref = Reference.load()
    assert(ref.size == 47)
    assert(ref.count(_._2.perfect) == 42)
    assert(ref.collect { case (id, e) if !e.perfect => id }.toSet == CorpusWorkload.KnownFailures)
  }
}
