package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import TokType._
import UniFi.{ConstStr, Extract}

/** §6.2 token alignment (Algorithm 3), including the sequential-extract
  * combination and the soundness/completeness properties of Appendix A.
  */
class AlignmentSpec extends AnyFunSuite with AsciiMessages {

  import PatternGen.p

  test("syntactic similarity: same class, equal numeric quantifiers") {
    assert(Alignment.syntacticallySimilar(Token(D, 3), Token(D, 3)))
    assert(!Alignment.syntacticallySimilar(Token(D, 3), Token(D, 4)))
  }

  test("syntactic similarity: plus matches any natural (Definition 6.1)") {
    assert(Alignment.syntacticallySimilar(Token(D, Quant.Plus), Token(D, 3)))
    assert(Alignment.syntacticallySimilar(Token(D, 3), Token(D, Quant.Plus)))
    assert(Alignment.syntacticallySimilar(Token(D, Quant.Plus), Token(D, Quant.Plus)))
  }

  test("syntactic similarity: different classes never match") {
    assert(!Alignment.syntacticallySimilar(Token(D, 3), Token(L, 3)))
    assert(!Alignment.syntacticallySimilar(Token(U, 1), Token(A, 1)))
  }

  test("identical literals align; different literals do not") {
    assert(Alignment.syntacticallySimilar(Token.lit("-"), Token.lit("-")))
    assert(!Alignment.syntacticallySimilar(Token.lit("-"), Token.lit(".")))
  }

  test("literal source can fill a base target of matching content (extension)") {
    assert(Alignment.syntacticallySimilar(Token(U, 3), Token.lit("CPT")))
    assert(!Alignment.syntacticallySimilar(Token(U, 4), Token.lit("CPT")))
    assert(Alignment.syntacticallySimilar(Token(U, Quant.Plus), Token.lit("CPT")))
    assert(!Alignment.syntacticallySimilar(Token(U, 3), Token.lit("CpT")))
  }

  test("paper Example 8: phone alignment edges") {
    val src = p("734.645.8397")   // <D>3 '.' <D>3 '.' <D>4
    val tgt = p("(734) 645-8397") // '(' <D>3 ')' ' ' <D>3 '-' <D>4
    val dag = Alignment.align(tgt, src)
    // target token 2 (<D>3) can come from source tokens 1 or 3
    assert(dag.edges((1, 2)).collect { case e: Extract => e }.toSet ==
      Set(Extract(1), Extract(3)))
    // literal '(' can only be a ConstStr
    assert(dag.edges((0, 1)) == Vector(ConstStr("(")))
    // <D>4 comes only from source token 5
    assert(dag.edges((6, 7)).collect { case e: Extract => e } == Vector(Extract(5)))
    assert(dag.isFeasible)
  }

  test("sequential extracts are combined (Fig. 10)") {
    val src = p("12/02/2017") // D2 '/' D2 '/' D4
    val tgt = p("12/02")      // D2 '/' D2
    val dag = Alignment.align(tgt, src)
    assert(dag.edges((0, 3)).contains(Extract(1, 3)))
  }

  test("combination chains to full length (completeness, Appendix A)") {
    val src = p("[CPT-00350]")
    val tgt = p("[CPT-00350]")
    val dag = Alignment.align(tgt, src)
    assert(dag.edges((0, tgt.size)).contains(Extract(1, src.size)))
  }

  test("combination requires consecutive source tokens") {
    val src = p("12x02") // D2 L1 D2
    val tgt = p("1202")  // D4 — no single source token matches D4
    val dag = Alignment.align(tgt, src)
    assert(!dag.isFeasible)
  }

  test("infeasible when a base target token has no source") {
    val dag = Alignment.align(p("abc123"), p("xyz"))
    assert(!dag.isFeasible)
  }

  test("literal-only targets are always feasible via ConstStr") {
    val dag = Alignment.align(p("--"), p("zz"))
    assert(dag.isFeasible)
  }

  test("soundness: every enumerated plan evaluates successfully on a match") {
    val src = p("734.645.8397")
    val tgt = p("(734) 645-8397")
    val plans = Alignment.align(tgt, src).allPlans()
    val vals = src.split("734.645.8397").get
    assert(plans.nonEmpty)
    plans.foreach(pl => assert(pl.eval(vals).isDefined, pl.render))
  }

  test("soundness: every plan's output matches the target pattern") {
    val src = p("734.645.8397")
    val tgt = p("(201) 555-0100")
    val plans = Alignment.align(tgt, src).allPlans()
    val vals = src.split("734.645.8397").get
    plans.foreach { pl =>
      val out = pl.eval(vals).get
      assert(tgt.matches(out), s"${pl.render} produced '$out'")
    }
  }

  test("completeness: the correct plan is among the enumerated ones") {
    val src = p("734.645.8397")
    val tgt = p("(201) 555-0100")
    val plans = Alignment.align(tgt, src).allPlans()
    val vals = src.split("734.645.8397").get
    assert(plans.exists(_.eval(vals).contains("(734) 645-8397")))
  }

  test("allPlans cap bounds enumeration") {
    val src = p("1.1.1.1.1.1")
    val tgt = p("1.1.1.1.1.1")
    assert(Alignment.align(tgt, src).allPlans(cap = 10).size == 10)
  }

  test("the ranked walk at budget 10 keeps exactly the classes of the first 10 paths") {
    val src = p("1.1.1.1.1.1")
    val dag = Alignment.align(src, src)
    val first10 = dag.allPlans(cap = 10)
    val classes = first10.map(Dedup.word(_, src)).toSet
    // later paths hold classes of their own, which the search must not reach
    assert(dag.allPlans(cap = 100).exists(pl => !classes.contains(Dedup.word(pl, src))))
    val kept = Mdl.best(Seq(dag), src, k = 100, budget = 10)
    assert(kept.map(Dedup.word(_, src)).toSet == classes)
    assert(kept == Dedup.dedup(Mdl.rank(first10, src.size), src))
  }
}
