package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.sim.Comparison

/** Table 7 (§7.4): user-effort simulation over all 47 tasks, plus the
  * expressivity counts quoted in the text.
  *
  * Paper: CLX vs FlashFill 17/17/13, CLX vs RegexReplace 33/12/2;
  * CLX perfect on 42/47, FlashFill 45/47, RegexReplace 46/47.
  * The comparison is deterministic; assertions pin the *shape* (who wins,
  * roughly by how much) and the exact CLX expressivity count.
  */
class Table7Bench extends AnyFunSuite with AsciiMessages {

  private lazy val s = Comparison.summary()

  test("Table 7: per-task Steps and aggregated comparison") {
    println("\n== Table 7: user effort simulation (Steps; lower is better) ==")
    println(f"${"task"}%-28s ${"src"}%-10s ${"CLX"}%5s ${"FF"}%5s ${"RR"}%5s   CLX breakdown")
    s.results.foreach { r =>
      println(f"${r.task.id}%-28s ${r.task.source}%-10s ${r.clxSteps}%5d ${r.ffSteps}%5d ${r.rrSteps}%5d   " +
        f"sel=${r.clx.selections} rep=${r.clx.repairs} fail=${r.clx.failures}")
    }
    println(s"\nCLX vs FlashFill    (wins/ties/loses): ${s.vsFlashFill}  [paper 17/17/13]")
    println(s"CLX vs RegexReplace (wins/ties/loses): ${s.vsRegexReplace}  [paper 33/12/2]")
    println(s"Expressivity: CLX ${s.clxPerfect}/47 [paper 42/47], " +
      s"FlashFill ${s.ffPerfect}/47 [paper 45/47], RegexReplace ${s.rrPerfect}/47 [paper 46/47]")
  }

  test("expressivity: CLX synthesizes a perfect program for 42/47 tasks (paper: 42)") {
    assert(s.clxPerfect == 42)
  }

  test("expressivity ordering matches the paper: RR >= FF >= CLX") {
    assert(s.rrPerfect >= s.ffPerfect && s.ffPerfect >= s.clxPerfect)
  }

  test("CLX's five failures have the paper's causes") {
    val failed = s.results.filterNot(_.clx.perfect).map(_.task.id).toSet
    assert(failed == Set("ff-ex13-conditional", "ff-mixed-names", "bf-address",
                         "prose-email", "prose-popl13"))
  }

  test("vs FlashFill: CLX wins at least as often as it loses (paper 17 vs 13)") {
    val w = s.vsFlashFill
    assert(w.wins >= w.loses, w.toString)
    assert(w.wins + w.ties + w.loses == 47)
    assert(w.ties >= 10, s"expected a large tie band, got $w")
  }

  test("vs RegexReplace: CLX dominates (paper 33 wins, 2 losses)") {
    val w = s.vsRegexReplace
    assert(w.wins >= 30, w.toString)
    assert(w.loses <= 4, w.toString)
  }

  test("CLX solves ~79% of tasks with a single selection (Appendix E, Fig. 16)") {
    val oneSelection = s.results.count(_.clx.selections == 1)
    assert(oneSelection.toDouble / 47 >= 0.70, s"$oneSelection/47")
  }

  test("at most one repair suffices in ~85% of tasks (Appendix E)") {
    val leOne = s.results.count(_.clx.repairs <= 1)
    assert(leOne.toDouble / 47 >= 0.75, s"$leOne/47")
  }

  test("no adjustment needed in about half the tasks (Appendix E)") {
    val zero = s.results.count(_.clx.repairs == 0)
    assert(zero.toDouble / 47 >= 0.45, s"$zero/47")
  }

  test("popl-13 analog consumes outsized CLX effort (Appendix E)") {
    val popl = s.results.find(_.task.id == "prose-popl13").get
    val medianClx = s.results.map(_.clxSteps).sorted.apply(23)
    assert(popl.clxSteps > 4 * medianClx)
  }
}
