package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks
import repro.core.Tokenizer

/** §7.4 simulated lazy users: Step accounting for all three systems. */
class SimSpec extends AnyFunSuite with AsciiMessages {

  private def task(id: String) = Benchmarks.all.find(_.id == id).get

  // ------------------------------------------------------------------- CLX

  test("CLX: homogeneous task costs exactly one selection") {
    val o = ClxSim.run(task("sygus-phone-1-long").data)
    assert(o.selections == 1 && o.repairs == 0 && o.failures == 0 && o.steps == 1)
  }

  test("CLX: middle-segment extraction needs one repair (ambiguous default)") {
    val o = ClxSim.run(task("sygus-phone-2-long").data)
    assert(o.selections == 1 && o.repairs == 1 && o.perfect)
  }

  test("CLX: conditional task fails (UniFi cannot express keywords)") {
    val o = ClxSim.run(task("ff-ex13-conditional").data)
    assert(!o.perfect && o.failures > 0)
  }

  test("CLX: McMillan-style record fails for lack of a target example") {
    val o = ClxSim.run(task("ff-mixed-names").data)
    assert(!o.perfect && o.failures == 1)
    assert(o.program.applyFlagged("Bob McMillan")._1 != "McMillan")
  }

  test("CLX: steps = selections + repairs + failures") {
    Benchmarks.all.take(10).foreach { t =>
      val o = ClxSim.run(t.data)
      assert(o.steps == o.selections + o.repairs + o.failures)
    }
  }

  test("CLX: chooseTargets uses only already-correct records") {
    val data = Vector(("123-456", "123456"), ("999111", "999111"))
    val targets = ClxSim.chooseTargets(data)
    assert(targets == Vector(Tokenizer.tokenize("999111")))
  }

  test("CLX: chooseTargets merges sibling leaves when unambiguous (Table 3)") {
    val targets = ClxSim.chooseTargets(task("bf-ex3-cpt").data)
    assert(targets.size == 1)
    assert(targets.head.render == "'['<U>+'-'<D>+']'")
  }

  test("CLX: chooseTargets requires a target-form record") {
    intercept[IllegalArgumentException](ClxSim.chooseTargets(Vector(("a", "b"))))
  }

  test("CLX: run is deterministic") {
    val d = task("sygus-phone-10-long").data
    assert(ClxSim.run(d).steps == ClxSim.run(d).steps)
  }

  // ------------------------------------------------------------- FlashFill

  test("FlashFill: one example per format on the heterogeneous phone task") {
    val o = FlashFillSim.run(task("sygus-phone-10-long").data)
    assert(o.examples == 4 && o.perfect)
  }

  test("FlashFill: steps include unfixed records") {
    val o = FlashFillSim.Outcome(examples = 3, failures = 2, perfect = false)
    assert(o.steps == 5)
  }

  test("FlashFill: solves the conditional task via keyword branches") {
    val o = FlashFillSim.run(task("ff-ex13-conditional").data)
    assert(o.perfect)
  }

  test("FlashFill: example budget bounds the loop") {
    val o = FlashFillSim.run(task("prose-popl13").data, exampleBudget = 3)
    assert(o.examples <= 3)
  }

  // ---------------------------------------------------------- RegexReplace

  test("RegexReplace: each op costs two steps") {
    val o = RegexReplaceSim.run(task("sygus-phone-1-long").data)
    assert(o.ops.size == 1 && o.steps == 2 && o.perfect)
  }

  test("RegexReplace: one generalized op per format family") {
    val o = RegexReplaceSim.run(task("sygus-phone-10-long").data)
    assert(o.ops.size == 4 && o.perfect)
  }

  test("RegexReplace: same-pattern permutation degenerates to per-record ops") {
    val o = RegexReplaceSim.run(task("sygus-reverse-name-long").data)
    assert(o.ops.size > 2) // regex alone cannot distinguish "First Last" from "Last First"
  }

  test("RegexReplace: op budget bounds the loop and punishes leftovers") {
    val o = RegexReplaceSim.run(task("prose-popl13").data, opBudget = 2)
    assert(o.ops.size <= 2)
    assert(o.steps == 2 * o.ops.size + o.failures)
  }

  // -------------------------------------------------------------- Table 7

  test("compare counts wins/ties/losses by fewer steps") {
    val w = Comparison.compare(Seq(1, 2, 3), Seq(2, 2, 2))
    assert(w == Comparison.WinTieLose(1, 1, 1))
  }

  test("runTask produces all three outcomes") {
    val r = Comparison.runTask(task("bf-ex3-cpt"))
    assert(r.clx.perfect && r.ff.perfect && r.rr.perfect)
    assert(r.clxSteps <= r.rrSteps)
  }
}
