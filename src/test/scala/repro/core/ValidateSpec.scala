package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import TokType._

/** §6.1 token-frequency validation (Eq. 1–2). */
class ValidateSpec extends AnyFunSuite with AsciiMessages {

  import PatternGen.p

  test("Q sums quantifiers of exactly-matching base classes") {
    val pat = p("(734) 645-8397")
    assert(Validate.freq(D, pat, countLiterals = false) == 10)
    assert(Validate.freq(U, pat, countLiterals = false) == 0)
  }

  test("Q treats plus as one") {
    val pat = Pattern.of(Token(D, Quant.Plus), Token.lit("-"), Token(D, 3))
    assert(Validate.freq(D, pat, countLiterals = false) == 4)
  }

  test("paper Example 7: [CPT-00350 pattern is a source candidate") {
    val target = Pattern.of(Token.lit("["), Token(U, Quant.Plus), Token.lit("-"),
                            Token(D, Quant.Plus), Token.lit("]"))
    val source = p("[CPT-00350")
    assert(Validate.validateAt(source, target, isLeaf = false))
  }

  test("paper Example 7: [CPT- pattern is rejected (no digits)") {
    val target = Pattern.of(Token.lit("["), Token(U, Quant.Plus), Token.lit("-"),
                            Token(D, Quant.Plus), Token.lit("]"))
    assert(!Validate.validateAt(p("[CPT-"), target, isLeaf = false))
  }

  test("noise pattern N/A rejected against a phone target") {
    assert(!Validate.validateAt(p("N/A"), p("734-422-8073"), isLeaf = false))
  }

  test("over-general AN pattern is rejected by the strict (paper) check") {
    val src = Pattern.of(Token(AN, Quant.Plus), Token.lit(","), Token(AN, Quant.Plus))
    val tgt = Pattern.of(Token(U, 1), Token(L, Quant.Plus), Token.lit(":"), Token(D, Quant.Plus))
    assert(!Validate.validateAt(src, tgt, isLeaf = false)) // §6.1 reason 3 — forces descent
  }

  test("leaf variant credits literal contents on the source side") {
    val src = Pattern.of(Token.lit("CPT"), Token.lit("-"), Token(D, 5))
    val tgt = Pattern.of(Token.lit("["), Token(U, Quant.Plus), Token.lit("-"),
                         Token(D, Quant.Plus), Token.lit("]"))
    assert(!Validate.validateAt(src, tgt, isLeaf = false)) // strict: Q(U)=0
    assert(Validate.validateAt(src, tgt, isLeaf = true))   // leaf: 'CPT' supplies 3 uppers
  }

  test("target-side literals cost nothing (ConstStr provides them)") {
    val tgt = Pattern.of(Token.lit("+1 ("), Token(D, 3), Token.lit(") "), Token(D, 3))
    val src = p("123.456")
    assert(Validate.validateAt(src, tgt, isLeaf = false))
  }

  test("validateAt dispatches by leaf flag") {
    val src = Pattern.of(Token.lit("CPT"), Token(D, 3))
    val tgt = Pattern.of(Token(U, Quant.Plus), Token(D, Quant.Plus))
    assert(Validate.validateAt(src, tgt, isLeaf = true))
    assert(!Validate.validateAt(src, tgt, isLeaf = false))
  }

  test("identical patterns validate") {
    assert(Validate.validateAt(p("ab12"), p("cd34"), isLeaf = false))
  }

  test("source with fewer digits than target is rejected") {
    assert(!Validate.validateAt(p("12-34"), p("123-456"), isLeaf = false))
  }

  test("alpha and alnum classes are matched exactly, not structurally") {
    val src = Pattern.of(Token(A, Quant.Plus))
    val tgt = Pattern.of(Token(U, 1), Token(L, Quant.Plus))
    assert(!Validate.validateAt(src, tgt, isLeaf = false)) // A provides neither U nor L in Eq. 1
  }
}
