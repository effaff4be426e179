package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.Assertions.assert
import repro.Ascii
import TokType._
import UniFi._

/** Generators, the dispatcher-free reference and the helpers shared by the
  * core properties and the suites that reuse them.
  */
object PatternGen {

  /** The leaf pattern of `s`. */
  def p(s: String): Pattern = Tokenizer.tokenize(s)

  /** Checks `prop` on at least `tests` successful cases; a failure shows the
    * status with non-ASCII characters escaped.
    */
  def check(prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, Ascii.escape(res.status.toString))
  }

  /** The phone normalization of Examples 8/9: `734.645.8397` to
    * `(734) 645-8397`.
    */
  val phoneBranch: Branch = Branch(p("734.645.8397"),
    Plan(Vector(ConstStr("("), Extract(1), ConstStr(") "), Extract(3), ConstStr("-"), Extract(5))))

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

  private def chars(alphabet: String, n: Int): Gen[String] = Gen.listOfN(n, Gen.oneOf(alphabet)).map(_.mkString)

  /** Up to six characters: letters, digits, `-`, `_`, `.` and space, `é`,
    * characters past the BMP, a lone high surrogate, and NUL and U+0003 (the
    * leaf key's own tag values).
    */
  val noise: Gen[String] = Gen.choose(0, 6).flatMap(n => Gen.listOfN(n,
    Gen.oneOf("a", "B", "Z", "0", "7", "-", "_", ".", " ", "é", "😀", "𝔸", "\uD83D", "\u0000", "\u0003"))
    .map(_.mkString))

  /** Format families (phones, codes, titles, dash-ids) with noise and the
    * empty string, after the FlashFill and BlinkFill example families. Small
    * alphabets make leaf patterns repeat, positions often (not always)
    * constant, and strings of one leaf pattern differ where alphanumeric
    * constants look (`CPT`/`MRI`/`CPU`, `+1`/`+2`, `Dr.`/`Mr.`/`Ds.`).
    */
  val strings: Gen[String] = Gen.frequency(
    4 -> (for {
      a <- chars("0127", 3); b <- chars("0127", 3); c <- chars("0127", 4); d <- Gen.oneOf("1", "2")
      fmt <- Gen.choose(0, 5)
    } yield Seq(s"($a) $b-$c", s"($a)$b-$c", s"$a-$b-$c", s"$a.$b.$c", s"$a $b $c", s"+$d $a-$b-$c")(fmt)),
    2 -> (for (code <- Gen.oneOf("CPT", "MRI", "CPU"); n <- chars("0127", 3)) yield code + n),
    2 -> (for (t <- Gen.oneOf("Dr.", "Mr.", "Ds."); name <- Gen.oneOf("Eran", "Kath", "Bo", "Bob")) yield s"$t $name"),
    2 -> (for {
      n <- Gen.choose(1, 3); parts <- Gen.listOfN(n, chars("aB7", 2)); sep <- Gen.oneOf("-", "_", "-_")
    } yield parts.mkString(sep)),
    1 -> Gen.const(""),
    2 -> noise,
  )

  /** Columns of up to 80 `strings`. */
  val columns: Gen[List[String]] = Gen.choose(0, 80).flatMap(Gen.listOfN(_, strings))

  /** Cells for the listings: `strings`, strings with literals past ASCII
    * (é, ～ and the surrogate pair 😀), and nulls.
    */
  val cells: Gen[List[String]] = {
    val wide = Gen.choose(0, 4).flatMap(n =>
      Gen.listOfN(n, Gen.oneOf("a", "Z", "7", "-", "é", "～", "😀")).map(_.mkString))
    Gen.choose(0, 60).flatMap(Gen.listOfN(_, Gen.frequency(6 -> strings, 3 -> wide, 1 -> Gen.const(null))))
  }

  /** Every string of up to three `parts`. */
  def words(parts: Seq[String]): Seq[String] =
    (0 to 3).flatMap(n => Seq.fill(n)(parts).foldLeft(Seq(""))((acc, ps) => for (s <- acc; p <- ps) yield s + p))

  /** Every string of up to three characters among the leaf key's tag values
    * (U+0000 to U+0004), a digit and a lower- and an upper-case letter.
    */
  val tagged: Seq[String] = words(Seq("\u0000", "\u0001", "\u0002", "\u0003", "\u0004", "0", "a", "A"))

  /** Patterns with alphanumeric constants, `+`, `<A>`/`<AN>` over `-`/`_`,
    * a class run split inside a leaf run, non-BMP literals, and the empty
    * pattern.
    */
  val fixed: Seq[Pattern] = {
    def d(n: Int) = Token(D, n)
    val plus = Quant.Plus
    Seq(
      Pattern.of(Token.lit("+"), Token.lit("1"), Token.lit(" "), d(3), Token.lit("-"), d(3), Token.lit("-"), d(4)),
      Pattern.of(Token.lit("+1 "), d(3), Token.lit("-"), Token(D, plus)),
      Pattern.of(Token.lit("CPT"), d(3)),
      Pattern.of(Token.lit("CPT"), Token(D, plus)),
      Pattern.of(Token.lit("Dr."), Token.lit(" "), Token(U, 1), Token(L, plus)),
      Pattern.of(Token(U, plus), Token(D, plus)),
      Pattern.of(Token(A, plus), Token.lit(" "), Token(A, plus)),
      Pattern.of(Token(A, plus), Token(L, 2)),
      Pattern.of(Token(D, plus), Token(D, 3)),
      Pattern.of(Token(AN, plus)),
      Pattern.of(Token(AN, plus), Token.lit("_"), Token(AN, plus)),
      Pattern.of(Token(A, plus), Token.lit("-"), Token(AN, plus)),
      Pattern.of(Token(D, plus), Token.lit("."), Token(D, plus), Token.lit("."), Token(D, plus)),
      Pattern.of(Token(L, plus), Token.lit("😀")),
      Pattern.of(Token.lit("😀"), Token(AN, plus)),
      Pattern.of(Token.lit("\uD83D")),
      Pattern.of(Token.lit("é"), Token(U, 1)),
      Pattern.empty,
    )
  }

  /** A plan over a pattern of `n` tokens; an `Extract` may reach past it. */
  def plan(n: Int): Gen[Plan] = {
    val op: Gen[StringExpr] = Gen.frequency(
      1 -> Gen.oneOf("(", ") ", "-", "x", "").map(ConstStr(_)),
      3 -> (for (i <- Gen.choose(1, n + 1); j <- Gen.choose(i, n + 1)) yield Extract(i, j)))
    Gen.choose(0, 4).flatMap(Gen.listOfN(_, op)).map(ops => Plan(ops.toVector))
  }

  /** Program application without the dispatcher: targets first, then each
    * branch's `Pattern.split` and `Plan.eval`, the first output wins.
    */
  def reference(prog: Program, s: String): Option[String] =
    if (prog.targets.exists(_.matches(s))) Some(s)
    else prog.branches.iterator.map(b => b.pattern.split(s).flatMap(b.plan.eval)).collectFirst { case Some(o) => o }
}
