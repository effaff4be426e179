package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import UniFi._

/** The UniFi language (Fig. 7): evaluation semantics. */
class UniFiSpec extends AnyFunSuite with AsciiMessages {

  private val Branch(phoneSrc, plan) = PatternGen.phoneBranch

  test("plan eval concatenates extracts and constants") {
    val vals = phoneSrc.split("734.645.8397").get
    assert(plan.eval(vals).contains("(734) 645-8397"))
  }

  test("multi-token extract concatenates the whole range") {
    val vals = phoneSrc.split("201.555.0100").get
    assert(Plan(Vector(Extract(1, 3))).eval(vals).contains("201.555"))
  }

  test("extract out of range fails gracefully") {
    assert(Plan(Vector(Extract(9))).eval(Vector("a", "b")).isEmpty)
  }

  test("extract range must be well-formed") {
    intercept[IllegalArgumentException](Extract(3, 2))
    intercept[IllegalArgumentException](Extract(0, 1))
  }

  test("program applies the first matching branch") {
    val prog = Program(Vector.empty, Vector(
      Branch(phoneSrc, plan),
      Branch(Tokenizer.tokenize("123-456"), Plan(Vector(Extract(1)))),
    ))
    assert(prog("734.645.8397").contains("(734) 645-8397"))
    assert(prog("123-456").contains("123"))
  }

  test("target-form strings pass through unchanged") {
    val target = Tokenizer.tokenize("(734) 645-8397")
    val prog = Program(Vector(target), Vector(Branch(phoneSrc, plan)))
    assert(prog("(201) 555-0100").contains("(201) 555-0100"))
  }

  test("unmatched strings are flagged, not transformed (§6.1)") {
    val prog = Program(Vector.empty, Vector(Branch(phoneSrc, plan)))
    assert(prog("N/A").isEmpty)
    assert(prog.applyFlagged("N/A") == ("N/A", false))
  }

  test("applyFlagged marks transformed strings") {
    val prog = Program(Vector.empty, Vector(Branch(phoneSrc, plan)))
    assert(prog.applyFlagged("734.645.8397") == ("(734) 645-8397", true))
  }

  test("render is readable") {
    assert(plan.render.startsWith("Concat(ConstStr('('), Extract(1)"))
    val prog = Program(Vector.empty, Vector(Branch(phoneSrc, plan)))
    assert(prog.render.contains("Match("))
  }

  test("empty plan yields the empty string") {
    assert(Plan(Vector.empty).eval(Vector("x")).contains(""))
  }

  test("paper Example 5 program transforms Table 3 rows") {
    // Switch branch for 'CPT'<D>+-style sources, hand-built
    val src = Pattern.of(Token(TokType.U, 3), Token(TokType.D, 3))
    val plan5 = Plan(Vector(ConstStr("["), Extract(1), ConstStr("-"), Extract(2), ConstStr("]")))
    val prog = Program(Vector.empty, Vector(Branch(src, plan5)))
    assert(prog("CPT115").contains("[CPT-115]"))
  }
}
