package repro.core

import org.scalatest.funsuite.AnyFunSuite
import UniFi._

/** §5 "Program Explanation": UniFi → regexp replace operations, in both
  * executable flavors. Semantic equality with the UniFi evaluator is the
  * key invariant (the user verifies the Replace ops, so they must do what
  * the program does).
  */
class RegexExplainSpec extends AnyFunSuite {

  private val src = Tokenizer.tokenize("734.645.8397")
  private val plan = Plan(Vector(
    ConstStr("("), Extract(1), ConstStr(") "), Extract(3), ConstStr("-"), Extract(5),
  ))
  private val branch = Branch(src, plan)

  test("only extracted tokens get capturing groups") {
    val r = RegexExplain.explain(branch)
    val compiled = java.util.regex.Pattern.compile(r.regex)
    assert(compiled.matcher("000.000.0000").groupCount() == 3)
    assert(r.regex.startsWith("\\A") && r.regex.endsWith("\\z"))
  }

  test("java replacement uses $n references") {
    val r = RegexExplain.explain(branch)
    assert(r.javaReplacement == "($1) $2-$3")
  }

  test("re2 replacement uses \\n references") {
    val r = RegexExplain.explain(branch)
    assert(r.re2Replacement == "(\\1) \\2-\\3")
  }

  test("applyJava equals UniFi evaluation") {
    val r = RegexExplain.explain(branch)
    val s = "201.555.0100"
    val viaUniFi = src.split(s).flatMap(plan.eval)
    assert(r.applyJava(s) == viaUniFi)
    assert(r.applyJava(s).contains("(201) 555-0100"))
  }

  test("applyJava is None for non-matching input") {
    assert(RegexExplain.explain(branch).applyJava("abc").isEmpty)
  }

  test("multi-token extract becomes one group") {
    val b = Branch(src, Plan(Vector(Extract(1, 3))))
    val r = RegexExplain.explain(b)
    assert(r.javaReplacement == "$1")
    assert(r.re2Replacement == "\\1")
    assert(r.applyJava("734.645.8397").contains("734.645"))
  }

  test("a run of extracted tokens is split where an Extract starts or ends") {
    val pl = Plan(Vector(Extract(1, 3), ConstStr("|"), Extract(3), ConstStr("|"), Extract(4, 5)))
    val r = RegexExplain.explain(Branch(src, pl))
    assert(r.javaReplacement == "$1$2|$2|$3")
    assert(r.applyJava("734.645.8397") == src.split("734.645.8397").flatMap(pl.eval))
  }

  // 10 two-digit numbers: 19 tokens, numbers at the odd positions
  private val tenNumbers = "10.11.12.13.14.15.16.17.18.19"
  private val tenSrc = Tokenizer.tokenize(tenNumbers)

  test("a branch extracting ten separate tokens has no RE2 flavor") {
    val pl = Plan((1 to 19 by 2).map(Extract(_)).flatMap(e => Vector(ConstStr("-"), e)).tail.toVector)
    val r = RegexExplain.explain(Branch(tenSrc, pl))
    assert(r.re2.isEmpty)
    val e = intercept[UnsupportedOperationException](r.re2Replacement)
    assert(e.getMessage.contains("more than 9 groups"))
    assert(r.applyJava(tenNumbers).contains("10-11-12-13-14-15-16-17-18-19"))
  }

  test("java flavor keeps a digit constant after a reference literal at ten groups") {
    val pl = Plan((1 to 19 by 2).map(Extract(_)).flatMap(e => Vector(e, ConstStr("0"))).toVector)
    val r = RegexExplain.explain(Branch(tenSrc, pl))
    assert(r.applyJava(tenNumbers) == tenSrc.split(tenNumbers).flatMap(pl.eval))
  }

  test("dollar signs in constants are escaped for Java") {
    val b = Branch(src, Plan(Vector(ConstStr("$"), Extract(1))))
    val r = RegexExplain.explain(b)
    assert(r.applyJava("734.645.8397").contains("$734"))
  }

  test("backslashes in constants are escaped") {
    val b = Branch(src, Plan(Vector(ConstStr("\\"), Extract(1))))
    assert(RegexExplain.explain(b).applyJava("734.645.8397").contains("\\734"))
  }

  test("natural rendering reads like Fig. 4") {
    val r = RegexExplain.explain(branch)
    assert(r.natural.startsWith("Replace /"))
    assert(r.natural.contains("{digit}{3}"))
  }

  test("explainProgram covers every branch") {
    val prog = Program(Vector.empty, Vector(branch, Branch(src, Plan(Vector(Extract(1))))))
    assert(RegexExplain.explainProgram(prog).size == 2)
  }

  test("round-trip property: random extracts behave identically via regex") {
    val r = new scala.util.Random(42)
    val strings = Seq("12-34-56", "ab.cd.ef", "(99) 11")
    strings.foreach { s =>
      val pat = Tokenizer.tokenize(s)
      (1 to 10).foreach { _ =>
        val i = 1 + r.nextInt(pat.size)
        val j = i + r.nextInt(pat.size - i + 1)
        val pl = Plan(Vector(Extract(i, j)))
        val rep = RegexExplain.explain(Branch(pat, pl))
        assert(rep.applyJava(s) == pat.split(s).flatMap(pl.eval))
      }
    }
  }
}
