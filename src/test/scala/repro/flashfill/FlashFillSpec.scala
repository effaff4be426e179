package repro.flashfill

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.core.{Hierarchy, Tokenizer}
import FlashFill._

/** The FlashFill-class baseline synthesizer (substrate for §7). */
class FlashFillSpec extends AnyFunSuite with AsciiMessages {

  test("single example: extract a token range") {
    val prog = FlashFillSynth.learn(Vector(("John Smith", "John")))
    assert(prog("Mary Jones") == "Mary")
  }

  test("single example: extract the last name") {
    val prog = FlashFillSynth.learn(Vector(("John Smith", "Smith")))
    assert(prog("Mary Jones") == "Jones")
  }

  test("constants and extracts combine") {
    val prog = FlashFillSynth.learn(Vector(("734.645.8397", "(734) 645-8397")))
    assert(prog("201.555.0100") == "(201) 555-0100")
  }

  test("variable-depth paths: one example per depth, generalizes within depth") {
    val prog = FlashFillSynth.learn(Vector(
      ("/home/alice/docs/report.txt", "report.txt"),
      ("/home/bob/work/docs/draft.pdf", "draft.pdf"),
    ))
    assert(prog("/home/carol/docs/notes.doc") == "notes.doc")
    assert(prog("/home/dave/work/docs/memo.txt") == "memo.txt")
  }

  test("end-anchored atoms are learned (FExtractLast in the winning plan)") {
    val plans = FlashFillSynth.enumeratePlans("/home/alice/docs/report.txt", "report.txt")
    assert(plans.exists(_.atoms.exists(_.isInstanceOf[FExtractLast])))
  }

  test("unmatched inputs pass through unchanged") {
    val prog = FlashFillSynth.learn(Vector(("John Smith", "John")))
    assert(prog("12345") == "12345")
  }

  test("two formats become two branches") {
    val prog = FlashFillSynth.learn(Vector(
      ("734.645.8397", "(734) 645-8397"),
      ("734-645-8397", "(734) 645-8397"),
    ))
    assert(prog("201.555.0100") == "(201) 555-0100")
    assert(prog("201-555-0100") == "(201) 555-0100")
  }

  test("keyword conditional: same pattern, different transforms") {
    val prog = FlashFillSynth.learn(Vector(
      ("holiday.jpg", "picture: holiday.jpg"),
      ("report.doc", "file: report.doc"),
    ))
    assert(prog("beach.jpg") == "picture: beach.jpg")
    assert(prog("memo.doc") == "file: memo.doc")
  }

  test("refined branches listed after their general branch still win on their inputs") {
    val gen = Hierarchy.getParent(Tokenizer.tokenize("Carl Young"), Hierarchy.strategy1)
    val prog = FFProgram(Vector(
      FBranch(gen, None, None, FPlan(Vector(FConst("general")))),
      FBranch(gen, None, Some("Ann"), FPlan(Vector(FConst("keyword")))),
      FBranch(gen, Some(Tokenizer.tokenize("Bob Stone")), None, FPlan(Vector(FConst("exact")))),
    ))
    assert(prog("Carl Young") == "general")
    assert(prog("Ann Lee") == "keyword")
    assert(prog("Bob Stone") == "exact")
    // both refinements apply: the exact pattern is the more specific
    assert(prog("Bob Annes") == "exact")
    assert(prog("12345") == "12345")
  }

  test("initials from sub-token-free case split") {
    val prog = FlashFillSynth.learn(Vector(("John Smith", "J.S.")))
    assert(prog("Mary Jones") == "M.J.")
  }

  test("learned program is consistent with all its examples") {
    val exs = Vector(
      ("Dr. Eran Yahav", "Yahav, E."),
      ("Dr. Kathleen Fisher", "Fisher, K."),
    )
    val prog = FlashFillSynth.learn(exs)
    exs.foreach { case (in, out) => assert(prog(in) == out) }
  }

  test("generalize widens quantifiers and merges") {
    val g = Hierarchy.getParent(Tokenizer.tokenize("John Smith"), Hierarchy.strategy1)
    assert(g.render == "<U>+<L>+' '<U>+<L>+")
  }

  test("FPlan eval: out-of-range extract fails") {
    assert(FPlan(Vector(FExtract(1, 5))).eval(Vector("a", "b")).isEmpty)
  }

  test("FPlan eval: end-anchored extraction indexes from the end") {
    assert(FPlan(Vector(FExtractLast(2, 1))).eval(Vector("a", "b", "c")).contains("bc"))
  }

  test("FPlan eval: token prefix and suffix") {
    assert(FPlan(Vector(FTokPrefix(1, 2))).eval(Vector("abcd")).contains("ab"))
    assert(FPlan(Vector(FTokSuffix(1, 2))).eval(Vector("abcd")).contains("cd"))
  }

  test("scoring prefers extraction over alphanumeric constants") {
    val extract = FPlan(Vector(FExtract(1, 1)))
    val const = FPlan(Vector(FConst("abc")))
    assert(extract.score < const.score)
  }

  test("learning is deterministic") {
    val exs = Vector(("a.b", "b"), ("c-d", "d"))
    assert(FlashFillSynth.learn(exs).branches.map(_.plan) ==
           FlashFillSynth.learn(exs).branches.map(_.plan))
  }

  test("distinguishing keyword is found") {
    val kw = FlashFillSynth.distinguishingKeyword(
      Vector("a.jpg", "b.jpg"), Vector("a.doc", "b.doc"))
    assert(kw.contains("jpg"))
  }

  test("no distinguishing keyword when sets overlap") {
    assert(FlashFillSynth.distinguishingKeyword(Vector("a.jpg"), Vector("a.jpg")).isEmpty)
  }

  test("enumeratePlans orders by score") {
    val plans = FlashFillSynth.enumeratePlans("John Smith", "John")
    assert(plans.nonEmpty)
    assert(plans.head.score == plans.map(_.score).min)
  }
}
