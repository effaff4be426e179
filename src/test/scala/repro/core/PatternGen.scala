package repro.core

import org.scalacheck.Gen

/** Token and pattern generators shared by the core properties. */
object PatternGen {

  /** Class tokens with `Num` and `+` quantifiers, and single- and
    * multi-character literals.
    */
  val tokens: Gen[Token] = Gen.frequency(
    3 -> Gen.oneOf(".", "-", " ", "a", "7").map(Token.lit),
    1 -> Gen.oneOf("ab", "Dr.", "--").map(Token.lit),
    4 -> Gen.zip(Gen.oneOf(TokType.baseClasses),
      Gen.frequency(3 -> Gen.choose(1, 3).map(Quant.Num(_)), 1 -> Gen.const(Quant.Plus))).map {
        case (t, q) => Token(t, q)
      })

  /** Patterns of `min` to `max` tokens from `tokens`. */
  def patterns(min: Int, max: Int): Gen[Pattern] =
    Gen.choose(min, max).flatMap(Gen.listOfN(_, tokens)).map(ts => Pattern(ts.toVector))
}
