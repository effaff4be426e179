package repro.core

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import TokType._
import UniFi._

/** Program application through the leaf-key dispatcher agrees with running
  * every pattern's regex on every string.
  */
class DispatcherSpec extends AnyFunSuite {

  import DispatcherSpec._

  private def check(prop: Prop, tests: Int = 500): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, res.status.toString)
  }

  /** Program application without the dispatcher: targets first, then each
    * branch's `Pattern.split` and `Plan.eval`, the first output wins.
    */
  private def reference(prog: Program, s: String): Option[String] =
    if (prog.targets.exists(_.matches(s))) Some(s)
    else prog.branches.iterator.map(b => b.pattern.split(s).flatMap(b.plan.eval)).collectFirst { case Some(o) => o }

  /** A string's leaf pattern, token by token kept, generalized (`+`, `<A>`,
    * `<AN>`, `-`/`_` into `<AN>`) or made the constant it holds.
    */
  private def derived(s: String): Gen[Pattern] = {
    val (leaf, values) = Tokenizer.tokenizeWithValues(s)
    Gen.sequence[Vector[Token], Token](leaf.tokens.zip(values).map {
      case (t, v) if t.isLiteral =>
        if (v == "-" || v == "_") Gen.oneOf(t, t, Token(AN, 1), Token(AN, Quant.Plus)) else Gen.const(t)
      case (t, v) =>
        Gen.oneOf(t, t, Token(t.tpe, Quant.Plus), Token.lit(v), Token(if (t.tpe == D) AN else A, t.quant),
          Token(AN, Quant.Plus))
    }).map(Pattern(_))
  }

  private val patterns: Gen[Pattern] = Gen.frequency(3 -> strings.flatMap(derived), 2 -> Gen.oneOf(fixed))

  private val programs: Gen[Program] = for {
    targets <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, patterns))
    sources <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, patterns))
    plans <- Gen.sequence[List[Plan], Plan](sources.map(p => plan(p.size)))
  } yield Program(targets.toVector, sources.zip(plans).map { case (p, e) => Branch(p, e) }.toVector)

  private val columns: Gen[List[String]] = Gen.choose(0, 80).flatMap(Gen.listOfN(_, strings))

  /** Applies `apply` to every string of `column` in order; a label names the
    * first string where it differs from the reference.
    */
  private def agrees(prog: Program, column: Seq[String])(apply: String => Option[String]): Prop =
    column.find(s => apply(s) != reference(prog, s)) match {
      case None    => Prop.passed
      case Some(s) => Prop.falsified :| s"'$s': ${apply(s)} != ${reference(prog, s)} under ${prog.targets} / ${prog.render}"
    }

  test("dispatched application equals regex application") {
    check(Prop.forAllNoShrink(programs, columns) { (prog, column) =>
      agrees(prog, column)(prog(_)) && agrees(prog, column)(s => Some(prog.applyFlagged(s)).collect {
        case (out, true) => out
        case (out, false) if out != s => "changed an unmatched string"
      })
    }, tests = 2000)
  }

  /** The first branch that `Pattern.split` accepts on `s` and whose plan
    * `Plan.eval` runs on the split, with the split; None when a target
    * matches `s` first or no branch does.
    */
  private def referenceBranch(prog: Program, s: String): Option[(Int, Vector[String])] =
    if (prog.targets.exists(_.matches(s))) None
    else prog.branches.indices.iterator.flatMap { b =>
      val br = prog.branches(b)
      br.pattern.split(s).filter(br.plan.eval(_).isDefined).map(b -> _)
    }.nextOption()

  test("branchOf is the first usable branch split accepts, with split's token bounds") {
    check(Prop.forAllNoShrink(programs, columns) { (prog, column) =>
      column.find { s =>
        val d = prog.branchOf(s)
        referenceBranch(prog, s) match {
          case None => d.branch != -1
          case Some((b, values)) =>
            d.branch != b || (1 until d.bounds.length).map(k => s.substring(d.bounds(k - 1), d.bounds(k))) != values
        }
      } match {
        case None    => Prop.passed
        case Some(s) => Prop.falsified :| s"'$s': branch ${prog.branchOf(s).branch} under ${prog.targets} / ${prog.render}"
      }
    }, tests = 2000)
  }

  test("a memo at its cap still dispatches correctly") {
    check(Prop.forAllNoShrink(programs, columns, Gen.choose(0, 3)) { (prog, column, cap) =>
      val dispatcher = new Dispatcher(prog.targets, prog.branches, cap)
      agrees(prog, column)(s => Option(dispatcher.output(s))) && Prop(dispatcher.memoSize <= cap)
    })
  }

  test("a column with more distinct leaf keys than the memo cap") {
    // 17^4 strings of four literal characters: each its own leaf pattern
    val alphabet = "!#$%&*+,./:;=?@-_"
    val column = for (a <- alphabet; b <- alphabet; c <- alphabet; d <- alphabet) yield s"$a$b$c$d"
    assert(column.size > MemoCap)
    val prog = Program(
      Vector(Pattern.of(Token.lit("-"), Token(AN, Quant.Plus))),
      Vector(
        Branch(Pattern.of(Token(AN, Quant.Plus), Token.lit("."), Token(AN, Quant.Plus)),
          Plan(Vector(Extract(3), ConstStr("|"), Extract(1)))),
        Branch(Tokenizer.tokenize("!!!!"), Plan(Vector(Extract(2, 4))))))
    column.foreach(s => assert(prog(s) == reference(prog, s), s))
    assert(column.count(prog(_).isDefined) > 0)
    assert(prog.dispatcher.memoSize == MemoCap)
  }

  test("one program applied from several threads at once") {
    val params = Gen.Parameters.default.withInitialSeed(11L)
    val threads = 4
    val pool = Executors.newFixedThreadPool(threads)
    try {
      (1 to 40).foreach { round =>
        val prog = programs.pureApply(params, org.scalacheck.rng.Seed(round.toLong))
        val column = Gen.listOfN(400, strings).pureApply(params, org.scalacheck.rng.Seed(1000L + round))
        val start = new CountDownLatch(1)
        val tasks = (0 until threads).map { t =>
          val order = new scala.util.Random(t).shuffle(column)
          new Callable[Seq[(String, Option[String])]] {
            def call(): Seq[(String, Option[String])] = { start.await(); order.map(s => s -> prog(s)) }
          }
        }
        val futures = tasks.map(pool.submit(_))
        start.countDown()
        futures.foreach(_.get(60, TimeUnit.SECONDS).foreach { case (s, out) =>
          assert(out == reference(prog, s), s"round $round, '$s' under ${prog.render}")
        })
      }
    } finally pool.shutdownNow()
  }

  test("strings with one leaf pattern that differ under an alphanumeric constant") {
    val prog = Program(
      Vector(Pattern.of(Token.lit("CPT"), Token(D, 3))),
      Vector(Branch(Pattern.of(Token(U, 3), Token(D, 3)),
        Plan(Vector(ConstStr("["), Extract(1), ConstStr("-"), Extract(2), ConstStr("]"))))))
    // same key, both orders
    assert(Seq("MRI115", "CPT115", "MRI204").map(prog(_)) ==
      Seq(Some("[MRI-115]"), Some("CPT115"), Some("[MRI-204]")))
    assert(Seq("CPT204", "MRI204").map(prog(_)) == Seq(Some("CPT204"), Some("[MRI-204]")))
    val plus1 = Program(Vector.empty, Vector(Branch(fixed.head, Plan(Vector(Extract(4, 8))))))
    assert(Seq("+2 734-645-8397", "+1 734-645-8397", "+2 201-555-0100").map(plus1(_)) ==
      Seq(None, Some("734-645-8397"), None))
  }
}

/** Generators of strings, patterns and plans for program properties. */
object DispatcherSpec {

  private def chars(alphabet: String, n: Int): Gen[String] = Gen.listOfN(n, Gen.oneOf(alphabet)).map(_.mkString)

  /** Format families with noise. Small alphabets make strings of one leaf
    * pattern differ where alphanumeric constants look (`CPT`/`MRI`, `+1`/`+2`,
    * `Dr.`/`Ds.`).
    */
  val strings: Gen[String] = Gen.frequency(
    4 -> (for {
      a <- chars("0127", 3); b <- chars("0127", 3); c <- chars("0127", 4); d <- Gen.oneOf("1", "2")
      fmt <- Gen.choose(0, 5)
    } yield Seq(s"($a) $b-$c", s"($a)$b-$c", s"$a-$b-$c", s"$a.$b.$c", s"$a $b $c", s"+$d $a-$b-$c")(fmt)),
    2 -> (for (code <- Gen.oneOf("CPT", "MRI", "CPU"); n <- chars("0127", 3)) yield code + n),
    2 -> (for (t <- Gen.oneOf("Dr.", "Mr.", "Ds."); name <- Gen.oneOf("Eran", "Kath", "Bo")) yield s"$t $name"),
    2 -> (for {
      n <- Gen.choose(1, 3); parts <- Gen.listOfN(n, chars("aB7", 2)); sep <- Gen.oneOf("-", "_", "-_")
    } yield parts.mkString(sep)),
    1 -> Gen.const(""),
    2 -> Gen.choose(0, 6).flatMap(n => Gen.listOfN(n,
      Gen.oneOf("a", "Z", "7", "-", "_", ".", " ", "é", "😀", "𝔸", "\uD83D")).map(_.mkString)),
  )

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
}
