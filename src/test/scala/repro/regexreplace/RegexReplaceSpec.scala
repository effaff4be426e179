package repro.regexreplace

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Ascii, AsciiMessages}
import repro.core.{Pattern, PatternGen, Token, Tokenizer}
import repro.core.PatternGen.{check, fixed, noise, phoneBranch, reference, strings}
import repro.core.UniFi.{Branch, ConstStr, Extract, Plan, Program}

/** The RegexReplace baseline's recipe semantics: an ordered vector of
  * Replace ops run as `Program(Vector.empty, ops)`, as `RegexReplaceSim`
  * runs them.
  */
class RegexReplaceSpec extends AnyFunSuite with AsciiMessages {

  /** The recipe of `ops`, first match wins. */
  private def recipe(ops: Vector[Branch]): Program = Program(Vector.empty, ops)

  /** `ops` on `s`: the first matching op's output, else `s` unchanged. */
  private def rewrite(ops: Vector[Branch], s: String): String = recipe(ops).applyFlagged(s)._1

  /** `op` alone on `s`: its output, or None where it does not match. */
  private def applyOp(op: Branch, s: String): Option[String] = recipe(Vector(op))(s)

  test("op applies on full match only") {
    assert(applyOp(phoneBranch, "201.555.0100").contains("(201) 555-0100"))
    assert(applyOp(phoneBranch, "x201.555.0100").isEmpty)
  }

  test("recipe: first match wins") {
    val identity = Branch(Tokenizer.tokenize("734.645.8397"), Plan(Vector(Extract(1, 5))))
    assert(rewrite(Vector(identity, phoneBranch), "201.555.0100") == "201.555.0100")
  }

  test("recipe: unmatched strings pass through") {
    assert(rewrite(Vector(phoneBranch), "N/A") == "N/A")
  }

  test("prepend puts the op in front") {
    val exact = Branch(Pattern.of(Token.lit("201.555.0100")), Plan(Vector(ConstStr("special"))))
    val ops = exact +: Vector(phoneBranch)
    assert(rewrite(ops, "201.555.0100") == "special")
    assert(rewrite(ops, "202.555.0100") == "(202) 555-0100")
  }

  test("append preserves earlier ops' priority") {
    val ops = Vector.empty[Branch] :+ phoneBranch :+ Branch(Tokenizer.tokenize("1.2.3"), Plan(Vector(Extract(1))))
    assert(ops.size == 2)
    assert(rewrite(ops, "9.8.7") == "9")
  }

  test("empty recipe is the identity") {
    assert(rewrite(Vector.empty, "anything") == "anything")
  }

  test("ops render to user-facing Replace form via RegexExplain") {
    val rep = repro.core.RegexExplain.explain(phoneBranch)
    assert(rep.javaReplacement == "($1) $2-$3")
    assert(rep.applyJava("201.555.0100") == applyOp(phoneBranch, "201.555.0100"))
  }

  /** An op over one of `PatternGen.fixed`, or an exact-string op
    * `Pattern.of(Token.lit(in))`; its plan may extract past its pattern.
    */
  private val ops: Gen[Branch] = for {
    pattern <- Gen.oneOf(Gen.oneOf(fixed),
      Gen.oneOf(noise, strings).filter(_.nonEmpty).map(in => Pattern.of(Token.lit(in))))
    plan <- PatternGen.plan(pattern.size)
  } yield Branch(pattern, plan)

  test("a recipe is first match wins over split and eval, and passes the rest through") {
    val recipes = Gen.choose(0, 6).flatMap(Gen.listOfN(_, ops)).map(_.toVector)
    val randoms = Gen.choose(0, 40).flatMap(Gen.listOfN(_, Gen.oneOf(noise, strings)))
    check(Prop.forAllNoShrink(recipes, randoms) { (ops, random) =>
      val program = recipe(ops)
      // every exact-string op's own string, and random ones
      val column = ops.flatMap(_.pattern.tokens.flatMap(_.literalValue)) ++ random
      column.find(s => program.applyFlagged(s)._1 != reference(program, s).getOrElse(s) ||
          program(s) != reference(program, s)) match {
        case None    => Prop.passed
        case Some(s) => Prop.falsified :| Ascii.escape(s"'$s': ${program(s)} != ${reference(program, s)} under ${program.render}")
      }
    }, tests = 1000)
  }
}
