package repro.regexreplace

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DispatcherSpec, Pattern, Token, Tokenizer}
import repro.core.UniFi.{Branch, ConstStr, Extract, Plan}
import RegexReplace._

/** The RegexReplace substrate: recipe semantics. */
class RegexReplaceSpec extends AnyFunSuite {

  private val phoneOp = Branch(
    Tokenizer.tokenize("734.645.8397"),
    Plan(Vector(ConstStr("("), Extract(1), ConstStr(") "), Extract(3), ConstStr("-"), Extract(5))),
  )

  /** `op` alone on `s`: its output, or None where it does not match. */
  private def applyOp(op: Branch, s: String): Option[String] = Recipe(Vector(op)).program(s)

  test("op applies on full match only") {
    assert(applyOp(phoneOp, "201.555.0100").contains("(201) 555-0100"))
    assert(applyOp(phoneOp, "x201.555.0100").isEmpty)
  }

  test("recipe: first match wins") {
    val identity = Branch(Tokenizer.tokenize("734.645.8397"), Plan(Vector(Extract(1, 5))))
    val r = Recipe(Vector(identity, phoneOp))
    assert(r("201.555.0100") == "201.555.0100")
  }

  test("recipe: unmatched strings pass through") {
    assert(Recipe(Vector(phoneOp))("N/A") == "N/A")
  }

  test("prepend puts the op in front") {
    val exact = Branch(Pattern.of(Token.lit("201.555.0100")), Plan(Vector(ConstStr("special"))))
    val r = Recipe(Vector(phoneOp)).prepend(exact)
    assert(r("201.555.0100") == "special")
    assert(r("202.555.0100") == "(202) 555-0100")
  }

  test("append preserves earlier ops' priority") {
    val r = empty.append(phoneOp).append(Branch(Tokenizer.tokenize("1.2.3"), Plan(Vector(Extract(1)))))
    assert(r.size == 2)
    assert(r("9.8.7") == "9")
  }

  test("empty recipe is the identity") {
    assert(empty("anything") == "anything")
  }

  test("ops render to user-facing Replace form via RegexExplain") {
    val rep = repro.core.RegexExplain.explain(phoneOp)
    assert(rep.javaReplacement == "($1) $2-$3")
    assert(rep.applyJava("201.555.0100") == applyOp(phoneOp, "201.555.0100"))
  }

  /** A recipe without the dispatcher: the first op whose `Pattern.split` and
    * `Plan.eval` give an output, else None.
    */
  private def reference(ops: Seq[Branch], s: String): Option[String] =
    ops.iterator.map(op => op.pattern.split(s).flatMap(op.plan.eval)).collectFirst { case Some(o) => o }

  /** Strings of letters, digits, non-BMP characters and punctuation. */
  private val exactStrings: Gen[String] = Gen.choose(1, 5).flatMap(n =>
    Gen.listOfN(n, Gen.oneOf("a", "Z", "7", "0", "é", "😀", "𝔸", "-", ".", " ")).map(_.mkString))

  /** An op over one of `DispatcherSpec`'s fixed patterns, or an exact-string
    * op `Pattern.of(Token.lit(in))`; its plan may extract past its pattern.
    */
  private val ops: Gen[Branch] = for {
    pattern <- Gen.oneOf(Gen.oneOf(DispatcherSpec.fixed),
      Gen.oneOf(exactStrings, DispatcherSpec.strings.filter(_.nonEmpty)).map(in => Pattern.of(Token.lit(in))))
    plan <- DispatcherSpec.plan(pattern.size)
  } yield Branch(pattern, plan)

  test("a recipe is first match wins over split and eval, and passes the rest through") {
    val recipes = Gen.choose(0, 6).flatMap(Gen.listOfN(_, ops)).map(_.toVector)
    val strings = Gen.choose(0, 40).flatMap(Gen.listOfN(_, Gen.oneOf(exactStrings, DispatcherSpec.strings)))
    val prop = Prop.forAllNoShrink(recipes, strings) { (ops, random) =>
      val recipe = Recipe(ops)
      // every exact-string op's own string, and random ones
      val column = ops.flatMap(_.pattern.tokens.flatMap(_.literalValue)) ++ random
      column.find(s => recipe(s) != reference(ops, s).getOrElse(s) || recipe.program(s) != reference(ops, s)) match {
        case None    => Prop.passed
        case Some(s) => Prop.falsified :| s"'$s': ${recipe(s)} != ${reference(ops, s)} under ${recipe.program.render}"
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }
}
