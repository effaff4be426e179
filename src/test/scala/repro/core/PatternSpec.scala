package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TokType._

/** Pattern model: rendering, regex generation, matching, splitting,
  * adjacent-merge semantics.
  */
class PatternSpec extends AnyFunSuite {

  private val phone = Tokenizer.tokenize("(734) 645-8397")

  test("render uses paper notation") {
    assert(Pattern.of(Token(D, 3), Token.lit("-"), Token(D, Quant.Plus)).render == "<D>3'-'<D>+")
  }

  test("renderNatural uses Wrangler-like notation") {
    assert(Pattern.of(Token(D, 3), Token.lit("-")).renderNatural == "{digit}{3}'-'")
  }

  test("groupedRegex anchors and groups every token") {
    assert(phone.groupedRegex.startsWith("\\A(") && phone.groupedRegex.endsWith(")\\z"))
    assert(phone.groupedRegex.count(_ == '(') >= phone.size)
  }

  test("matches is exact (full match)") {
    assert(phone.matches("(201) 555-0100"))
    assert(!phone.matches("(201) 555-0100 "))
    assert(!phone.matches("x(201) 555-0100"))
  }

  test("the empty pattern renders as nothing but prints visibly") {
    assert(Pattern.empty.render == "")
    assert(Pattern.empty.toString == "Pattern.empty")
    assert(Synthesizer.Result(Vector.empty, Vector(Pattern.empty)).toString == "Result(Vector(),Vector(Pattern.empty))")
    assert(phone.toString == phone.render)
  }

  test("split returns per-token substrings") {
    assert(phone.split("(734) 645-8397") ==
      Some(Vector("(", "734", ")", " ", "645", "-", "8397")))
  }

  test("split fails on non-matching string") {
    assert(phone.split("734-645-8397").isEmpty)
  }

  test("plus quantifier matches one or more") {
    val p = Pattern.of(Token(D, Quant.Plus))
    assert(p.matches("1") && p.matches("123456"))
    assert(!p.matches(""))
  }

  test("literal with regex metacharacters is quoted") {
    val p = Pattern.of(Token.lit("("), Token(D, 1), Token.lit(")"))
    assert(p.matches("(5)"))
    val dot = Pattern.of(Token.lit("."))
    assert(dot.matches(".") && !dot.matches("x"))
  }

  test("AN class matches letters, digits, dash and underscore") {
    val p = Pattern.of(Token(AN, Quant.Plus))
    assert(p.matches("a1-B_2"))
    assert(!p.matches("a b"))
  }

  test("mergeAdjacent merges same-class neighbours and sums quantifiers") {
    val p = Pattern.of(Token(D, 2), Token(D, 3)).mergeAdjacent
    assert(p == Pattern.of(Token(D, 5)))
  }

  test("mergeAdjacent: plus absorbs numeric") {
    val p = Pattern.of(Token(D, Quant.Plus), Token(D, 3)).mergeAdjacent
    assert(p == Pattern.of(Token(D, Quant.Plus)))
  }

  test("mergeAdjacent keeps literals separate") {
    val p = Pattern.of(Token.lit("-"), Token.lit("-")).mergeAdjacent
    assert(p.size == 2)
  }

  test("mergeAdjacent keeps different classes separate") {
    val p = Pattern.of(Token(U, 1), Token(L, 3)).mergeAdjacent
    assert(p.size == 2)
  }

  test("pattern equality is structural (usable as a cluster key)") {
    assert(Tokenizer.tokenize("123-456") == Tokenizer.tokenize("987-654"))
    assert(Tokenizer.tokenize("123-456") != Tokenizer.tokenize("123.456"))
  }

  test("quantifier freqValue: plus counts as one (Eq. 1 convention)") {
    assert(Quant.Plus.freqValue == 1 && Quant.Num(4).freqValue == 4)
  }

  test("quantifier must be positive") {
    intercept[IllegalArgumentException](Quant.Num(0))
  }

  test("literal token must be non-empty") {
    intercept[IllegalArgumentException](Token.lit(""))
  }

  test("TokType.matches agrees with the regexes of Table 2") {
    assert(TokType.matches(D, '7') && !TokType.matches(D, 'a'))
    assert(TokType.matches(L, 'z') && !TokType.matches(L, 'Z'))
    assert(TokType.matches(U, 'Q') && !TokType.matches(U, 'q'))
    assert(TokType.matches(A, 'q') && TokType.matches(A, 'Q') && !TokType.matches(A, '1'))
    assert(TokType.matches(AN, '1') && TokType.matches(AN, '-') && TokType.matches(AN, '_'))
    assert(!TokType.matches(AN, ' '))
  }

  test("split of generalized pattern on longer runs") {
    val p = Pattern.of(Token(U, Quant.Plus), Token(L, Quant.Plus))
    assert(p.split("MICHigan") == Some(Vector("MICH", "igan")))
  }
}
