package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.benchmark.Benchmarks
import repro.sim.ClxSim
import TokType._
import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** Appendix B: equivalent-plan detection. */
class DedupSpec extends AnyFunSuite {

  /** Definition 6.2 equivalence w.r.t. `source`: equal canonical words. */
  private def equivalent(p1: Plan, p2: Plan, source: Pattern): Boolean =
    Dedup.word(p1, source) == Dedup.word(p2, source)

  // source <D>2 '/' <D>2 — the paper's own example
  private val src = Pattern.of(Token(D, 2), Token.lit("/"), Token(D, 2))

  test("paper's example: Extract(2) of '/' equals ConstStr('/')") {
    val p1 = Plan(Vector(Extract(3), ConstStr("/"), Extract(1)))
    val p2 = Plan(Vector(Extract(3), Extract(2), Extract(1)))
    assert(equivalent(p1, p2, src))
  }

  test("multi-token extract is split before comparison") {
    val p1 = Plan(Vector(Extract(1, 3)))
    val p2 = Plan(Vector(Extract(1), Extract(2), Extract(3)))
    assert(equivalent(p1, p2, src))
  }

  test("extract of a constant-valued base token is NOT a ConstStr equivalent") {
    // token 1 is <D>2 (not a literal): its value varies per string
    val p1 = Plan(Vector(Extract(1)))
    val p2 = Plan(Vector(ConstStr("12")))
    assert(!equivalent(p1, p2, src))
  }

  test("different lengths after atomization are not equivalent") {
    val p1 = Plan(Vector(Extract(1, 2)))
    val p2 = Plan(Vector(Extract(1)))
    assert(!equivalent(p1, p2, src))
  }

  test("different extractions are not equivalent") {
    val p1 = Plan(Vector(Extract(1)))
    val p2 = Plan(Vector(Extract(3)))
    assert(!equivalent(p1, p2, src))
  }

  test("dedup keeps the first representative of each class") {
    val a = Plan(Vector(Extract(1, 3)))
    val b = Plan(Vector(Extract(1), Extract(2), Extract(3)))
    val c = Plan(Vector(Extract(1), ConstStr("/"), Extract(3)))
    assert(Dedup.dedup(Seq(a, b, c), src) == Vector(a))
  }

  test("dedup honors maxKeep") {
    val plans = (1 to 3).map(i => Plan(Vector(Extract(i))))
    assert(Dedup.dedup(plans, src, maxKeep = 2).size == 2)
  }

  test("equivalence is symmetric") {
    val p1 = Plan(Vector(ConstStr("/")))
    val p2 = Plan(Vector(Extract(2)))
    assert(equivalent(p1, p2, src) && equivalent(p2, p1, src))
  }

  test("extracts of two equal literal tokens are equivalent") {
    val ip = Pattern.of(Token(D, 3), Token.lit("."), Token(D, 3), Token.lit("."), Token(D, 3))
    assert(equivalent(Plan(Vector(Extract(2))), Plan(Vector(Extract(4))), ip))
    assert(Dedup.dedup(Seq(Plan(Vector(Extract(1, 2))), Plan(Vector(Extract(1), Extract(4)))), ip).size == 1)
  }

  test("a ConstStr equals its split into shorter ConstStrs") {
    assert(equivalent(Plan(Vector(ConstStr("ab"))), Plan(Vector(ConstStr("a"), ConstStr("b"))), src))
    assert(equivalent(
      Plan(Vector(Extract(1), ConstStr("/-"))), Plan(Vector(Extract(1, 2), ConstStr("-"))), src))
  }

  test("an escape-like constant and a large token index stay distinct") {
    // a NUL in a constant must not read as the index marker
    assert(!equivalent(Plan(Vector(ConstStr("\u0000\u0001\u0001"))), Plan(Vector(Extract(1))), src))
    val wide = Pattern(Vector.fill(65537)(Token(D, 1)))
    assert(!equivalent(Plan(Vector(Extract(65537))), Plan(Vector(Extract(1))), wide))
  }

  test("sygus-initials-long keeps one plan per class") {
    val data = Benchmarks.all.find(_.id == "sygus-initials-long").get.data
    val result = Synthesizer.synthesize(
      Synthesizer.hierarchyOf(data.map(_._1)), ClxSim.chooseTargets(data), k = 40)
    // source <U>+'.'<U>+'.' toward target <U>1'.'<U>1'.': the only classes
    // are the first initial then the second, the reverse, and either one twice
    val initials = result.solutions.find(_.source.render == "<U>+'.'<U>+'.'").get
    assert(initials.plans.size == 4, initials.plans.map(_.render))
    assert(initials.default == Plan(Vector(Extract(1, 4))))
  }

  // Random source patterns and plans on them, evaluated on random token values.

  private val classChars: Map[TokType, String] = {
    val lower = "abcdefghijklmnopqrstuvwxyz"; val digits = "0123456789"
    Map(D -> digits, L -> lower, U -> lower.toUpperCase, A -> (lower + lower.toUpperCase),
      AN -> (lower + lower.toUpperCase + digits + "_-"))
  }

  private def ops(n: Int): Gen[StringExpr] = Gen.oneOf(
    for (i <- Gen.choose(1, n); j <- Gen.choose(i, math.min(n, i + 2))) yield Extract(i, j),
    Gen.choose(1, 3).flatMap(Gen.listOfN(_, Gen.oneOf("ab.-7r D"))).map(cs => ConstStr(cs.mkString)))

  private def plans(n: Int): Gen[Plan] = Gen.choose(1, 4).flatMap(Gen.listOfN(_, ops(n))).map(os => Plan(os.toVector))

  /** A plan with the same output as `plan` on every string of `source`:
    * atomized, some literal-token Extracts written as ConstStr, and some
    * adjacent pieces merged again, as `coins` say.
    */
  private def rewrite(plan: Plan, source: Pattern, coins: Iterator[Boolean]): Plan = {
    val pieces = plan.exprs.flatMap {
      case Extract(i, j) => (i to j).map(k => source.tokens(k - 1).literalValue match {
        case Some(v) if coins.next() => ConstStr(v)
        case _                       => Extract(k)
      })
      case ConstStr(s) => s.map(c => ConstStr(c.toString))
    }
    Plan(pieces.foldLeft(Vector.empty[StringExpr]) { (out, piece) =>
      (out.lastOption, piece) match {
        case (Some(Extract(i, j)), Extract(k, l)) if k == j + 1 && coins.next() => out.init :+ Extract(i, l)
        case (Some(ConstStr(a)), ConstStr(b)) if coins.next()                   => out.init :+ ConstStr(a + b)
        case _                                                                  => out :+ piece
      }
    })
  }

  /** Per-token substrings of one random string matching `source`. */
  private def values(source: Pattern): Gen[Vector[String]] =
    Gen.sequence[Vector[String], String](source.tokens.map {
      case Token(Lit(v), _) => Gen.const(v)
      case Token(t, q) =>
        val len = q match { case Quant.Num(n) => Gen.const(n); case Quant.Plus => Gen.choose(1, 3) }
        len.flatMap(Gen.listOfN(_, Gen.oneOf(classChars(t)))).map(_.mkString)
    })

  test("equal canonical words are exactly equal outputs on sampled strings") {
    var same, different = 0
    val cases = for {
      source <- PatternGen.patterns(1, 6)
      p1 <- plans(source.size)
      coins <- Gen.infiniteLazyList(Gen.prob(0.5))
      p2 <- Gen.oneOf(Gen.const(rewrite(p1, source, coins.iterator)), plans(source.size),
        ops(source.size).map(op => Plan(rewrite(p1, source, coins.iterator).exprs :+ op)))
      samples <- Gen.listOfN(30, values(source))
    } yield (source, p1, p2, samples)
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000),
      Prop.forAllNoShrink(cases) { case (source, p1, p2, samples) =>
        val outputsAgree = samples.forall(v => p1.eval(v) == p2.eval(v))
        if (equivalent(p1, p2, source)) { same += 1; outputsAgree }
        else { different += 1; !outputsAgree }
      })
    assert(res.passed, res.status.toString)
    assert(same > 200 && different > 200, s"same=$same different=$different")
  }
}
