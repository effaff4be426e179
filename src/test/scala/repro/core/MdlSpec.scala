package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import UniFi.{ConstStr, Extract, Plan}
import TokType.D

/** §6.3 MDL ranking (Eq. 3–6) and the paper's Example 9. */
class MdlSpec extends AnyFunSuite {

  private val e13 = Plan(Vector(Extract(1, 3)))
  private val split = Plan(Vector(Extract(1), ConstStr("/"), Extract(3)))

  private def log2(x: Double) = math.log(x) / math.log(2)

  // L(E,T) = L(E) (Eq. 4) + L(T|E) (Eq. 5)

  test("model length of a single-op plan is zero (log2 1)") {
    assert(math.abs(Mdl.length(e13, 5) - (0.0 + log2(25))) < 1e-9) // model 0, one Extract
  }

  test("model length counts ops times log2 of distinct op types") {
    // 3 ops, 2 types -> 3·log2(2), plus two Extracts and one character
    assert(math.abs(Mdl.length(split, 5) - (3.0 + 2 * log2(25) + log2(95))) < 1e-9)
  }

  test("data length of an Extract is log2 |P|^2") {
    assert(math.abs(Mdl.length(e13, 5) - log2(25)) < 1e-9)
  }

  test("data length of a ConstStr is |s|·log2 95") {
    val c = Plan(Vector(ConstStr("ab")))
    assert(math.abs(Mdl.length(c, 5) - (0.0 + 2 * log2(95))) < 1e-9)
  }

  /** Plans of 1-6 ops over a source of `n` tokens. */
  private def plans(n: Int): Gen[Plan] = Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.oneOf(
    Gen.choose(1, n).flatMap(i => Gen.choose(i, n).map(Extract(i, _))),
    Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.alphaNumChar)).map(cs => ConstStr(cs.mkString))))
  ).map(ops => Plan(ops.toVector))

  test("description length is the same double for every order of a plan's ops") {
    // summed op by op left to right, these two read 22.857567987880397 and 22.8575679878804
    val forward = Plan(Vector(Extract(1), Extract(1), ConstStr("a")))
    assert(Mdl.length(forward, 10) == Mdl.length(Plan(forward.exprs.reverse), 10))
    val cases = for {
      n <- Gen.choose(1, 12)
      p <- plans(n)
      seed <- Gen.long
    } yield (n, p, Plan(new scala.util.Random(seed).shuffle(p.exprs)))
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000),
      Prop.forAllNoShrink(cases) { case (n, p, q) => Mdl.length(p, n) == Mdl.length(q, n) })
    assert(res.passed, res.status.toString)
  }

  test("rank orders plans that differ only in op order by op count, penalty and render") {
    // 3 ops and penalty 2 each, so the render decides: ConstStr before Extract
    val forward = Plan(Vector(Extract(1), Extract(1), ConstStr("a")))
    val reverse = Plan(Vector(ConstStr("a"), Extract(1), Extract(1)))
    assert(Mdl.orderPenalty(forward) == 2 && Mdl.orderPenalty(reverse) == 2)
    assert(Mdl.rank(Seq(forward, reverse), 10) == Vector(reverse, forward))
  }

  test("paper Example 9: single combined extract beats split plan") {
    // source <D>2/<D>2/<D>4 (5 tokens), target <D>2/<D>2
    assert(Mdl.length(e13, 5) < Mdl.length(split, 5))
  }

  test("rank orders by description length ascending") {
    val ranked = Mdl.rank(Seq(split, e13), 5)
    assert(ranked.head == e13)
  }

  test("order penalty: repeats cost more than inversions") {
    val repeat = Plan(Vector(Extract(1), Extract(1)))
    val invert = Plan(Vector(Extract(3), Extract(1)))
    val forward = Plan(Vector(Extract(1), Extract(3)))
    assert(Mdl.orderPenalty(forward) == 0)
    assert(Mdl.orderPenalty(invert) == 1)
    assert(Mdl.orderPenalty(repeat) == 2)
  }

  test("rank breaks DL ties with the order penalty") {
    val forward = Plan(Vector(Extract(1), ConstStr("."), Extract(3)))
    val repeat = Plan(Vector(Extract(1), ConstStr("."), Extract(1)))
    val ranked = Mdl.rank(Seq(repeat, forward), 5)
    assert(ranked.head == forward)
  }

  test("rank is deterministic under permutation of input") {
    val plans = Seq(e13, split, Plan(Vector(Extract(3, 5))))
    assert(Mdl.rank(plans, 5) == Mdl.rank(plans.reverse, 5))
  }

  test("longer constants cost more") {
    val short = Plan(Vector(ConstStr("a")))
    val long = Plan(Vector(ConstStr("abcd")))
    assert(Mdl.length(short, 3) < Mdl.length(long, 3))
  }

  test("render tie-break: Extract(10) sorts before Extract(9)") {
    val ten = Plan(Vector(Extract(10)))
    val nine = Plan(Vector(Extract(9)))
    assert(Mdl.rank(Seq(nine, ten), 12) == Vector(ten, nine))
  }

  test("render tie-break: Extract(1) sorts before Extract(1,2)") {
    val one = Plan(Vector(Extract(1), ConstStr("-"), Extract(3)))
    val oneTwo = Plan(Vector(Extract(1, 2), ConstStr("-"), Extract(3)))
    assert(Mdl.rank(Seq(oneTwo, one), 4) == Vector(one, oneTwo))
  }

  test("render tie-break: an op render that prefixes another falls back to plan render") {
    // "ConstStr('a')" prefixes "ConstStr('a')b')" and "ConstStr('a') b')"; in
    // the second pair the whole-plan renders order opposite to the op renders
    val a = Plan(Vector(ConstStr("a"), ConstStr("bcde")))
    val aQuoteB = Plan(Vector(ConstStr("a')b"), ConstStr("c")))
    assert(Mdl.rank(Seq(aQuoteB, a), 3) == Vector(a, aQuoteB))
    val a5 = Plan(Vector(ConstStr("a"), ConstStr("bcdef")))
    val aQuoteSpace = Plan(Vector(ConstStr("a') b"), ConstStr("c")))
    assert(Mdl.rank(Seq(a5, aQuoteSpace), 3) == Vector(aQuoteSpace, a5))
  }

  test("equal plans keep their input order") {
    val x = Plan(Vector(Extract(1)))
    val y = Plan(Vector(Extract(1)))
    val ranked = Mdl.rank(Seq(x, y), 3)
    assert(ranked(0) eq x)
    assert(ranked(1) eq y)
  }

  // The best-first search `Mdl.best` against enumerate → rank → dedup.

  private val Budgets = Seq(1, 7, Alignment.PathBudget)

  /** `best`'s definition. */
  private def bestReference(dags: Seq[Alignment.Dag], source: Pattern, k: Int, budget: Int): Vector[Plan] =
    Dedup.dedup(Mdl.rank(dags.flatMap(_.allPlans(budget)), source.size), source, maxKeep = k)

  /** Equal plans built from the same op instances: the search keeps the
    * very path the reference keeps, not just an equal plan from another DAG.
    */
  private def samePaths(a: Vector[Plan], b: Vector[Plan]): Boolean =
    a == b && a.zip(b).forall { case (x, y) => x.exprs.corresponds(y.exprs)(_ eq _) }

  private def assertBestLikeReference(dags: Seq[Alignment.Dag], source: Pattern, ks: Seq[Int] = Seq(1, 10, 40)): Unit =
    for (budget <- Budgets; k <- ks) {
      val searched = Mdl.best(dags, source, k, budget)
      val reference = bestReference(dags, source, k, budget)
      assert(samePaths(searched, reference), s"budget $budget, k $k: ${searched.map(_.render)} vs ${reference.map(_.render)}")
    }

  /** `best` at k = 1, 10 and 40 against the prefixes of one reference at k = 40. */
  private def assertPrefixesOfReference(dags: Seq[Alignment.Dag], source: Pattern, budget: Int, clue: String): Unit = {
    val reference = bestReference(dags, source, 40, budget)
    for (k <- Seq(1, 10, 40)) {
      val searched = Mdl.best(dags, source, k, budget)
      assert(samePaths(searched, reference.take(k)),
        s"$clue, budget $budget, k $k: ${searched.map(_.render)} vs ${reference.take(k).map(_.render)}")
    }
  }

  /** The number of Appendix B classes (distinct words of the paths) of each
    * DAG and of their union, or `None` when a DAG has paths past the budget.
    */
  private def classCounts(dags: Seq[Alignment.Dag], source: Pattern): Option[(Seq[Int], Int)] = {
    val plans = dags.map(_.allPlans())
    if (plans.exists(_.size >= Alignment.PathBudget)) None
    else {
      val words = plans.map(_.map(Dedup.word(_, source)).toSet)
      Some((words.map(_.size), words.foldLeft(Set.empty[String])(_ ++ _).size))
    }
  }

  /** The paths of `dags` tied with the `k`-th plan `best` keeps on every key
    * but the render: the group `best` cuts at `k`, in position order.
    */
  private def groupCutAt(dags: Seq[Alignment.Dag], source: Pattern, k: Int): Vector[Plan] = {
    def key(p: Plan) = (Mdl.length(p, source.size), p.exprs.size, Mdl.orderPenalty(p))
    val last = key(bestReference(dags, source, k, Alignment.PathBudget).last)
    dags.flatMap(_.allPlans()).filter(key(_) == last).toVector
  }

  /** Two adjacent plans of `ranked` that tie on every key but the render,
    * and whose first differing ops' renders order them the other way.
    */
  private def renderOverridesOps(ranked: Vector[Plan], sourceSize: Int): Boolean = {
    def key(p: Plan) = (Mdl.length(p, sourceSize), p.exprs.size, Mdl.orderPenalty(p))
    ranked.zip(ranked.drop(1)).exists { case (x, y) =>
      key(x) == key(y) && x.exprs.zip(y.exprs).find { case (a, b) => a != b }.exists { case (a, b) => a.render > b.render }
    }
  }

  /** The literals `a`, `a')b` and `a') b`, whose ConstStr renders clash by
    * prefix. After `ConstStr('a')`, a plan render goes on with `,` or `)`,
    * which sort after the space of `a') b` but before the `b` of `a')b`.
    */
  private val clashing = Gen.oneOf(Token.lit("a"), Token.lit("a')b"), Token.lit("a') b"))

  /** A target aligned against `source`: copies of its tokens, tokens from
    * the shared generator, and the clashing literals.
    */
  private def target(source: Pattern): Gen[Pattern] =
    Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.frequency(
      6 -> Gen.oneOf(source.tokens),
      2 -> PatternGen.tokens,
      1 -> clashing))).map(ts => Pattern(ts.toVector))

  test("best equals enumerate, rank and dedup over random sources and 1-3 validated targets") {
    var clashes, unions, sharedPlans, rendersDecide, fewClasses, overlapping, pastEach = 0
    val cases = (for {
      source <- PatternGen.patterns(1, 6)
      firsts <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, target(source)))
      // a repeated target puts one plan in two DAGs; one target between `a`
      // and `a') b`, in both orders, ties plans that first differ there
      ends = Seq(Token.lit("a"), Token.lit("a') b"))
      mirrored = Seq(ends, ends.reverse).map(e => Pattern(e.head +: firsts.head.tokens :+ e.last)) ++ firsts.tail
      targets <- Gen.oneOf(firsts, firsts :+ firsts.head, mirrored)
    } yield (source, targets.filter(Validate.validateAt(source, _, isLeaf = true)).take(3)))
      .suchThat(_._2.nonEmpty)
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500),
      Prop.forAllNoShrink(cases) { case (source, targets) =>
        val dags = targets.map(Alignment.align(_, source)).filter(_.isFeasible)
        val renders = dags.flatMap(_.edges.valuesIterator.flatten.map(_.render)).distinct.sorted
        if ((1 until renders.size).exists(r => renders(r).startsWith(renders(r - 1)))) clashes += 1
        if (dags.size > 1) unions += 1
        if (dags.size > 1 && dags.map(_.allPlans(7).toSet).reduce(_ intersect _).nonEmpty) sharedPlans += 1
        if (renderOverridesOps(bestReference(dags, source, 40, Alignment.PathBudget), source.size)) rendersDecide += 1
        // calls `best` stops by the class count: fewer classes than k, and
        // unions whose DAGs share classes or each hold fewer than the union
        classCounts(dags, source).foreach { case (perDag, union) =>
          if (union < 40) fewClasses += 1
          if (union < perDag.sum) overlapping += 1
          if (union < 40 && perDag.forall(_ < union)) pastEach += 1
        }
        assertBestLikeReference(dags, source)
        true
      })
    assert(res.passed, res.status.toString)
    assert(clashes > 10 && unions > 50 && sharedPlans > 10 && rendersDecide > 20 &&
      fewClasses > 100 && overlapping > 10 && pastEach > 10,
      s"clashes=$clashes unions=$unions shared=$sharedPlans rendersDecide=$rendersDecide " +
        s"fewClasses=$fewClasses overlapping=$overlapping pastEach=$pastEach")
  }

  test("best: ConstStr renders that clash by prefix across two DAGs") {
    val source = Pattern.of(Token(D, 2), Token.lit("-"), Token(D, 2))
    val t1 = Pattern.of(Token.lit("a"), Token.lit("')b"), Token(D, 2))
    val t2 = Pattern.of(Token.lit("a')b"), Token(D, 2))
    val dags = Seq(t1, t2).map(Alignment.align(_, source))
    assert(dags.flatMap(_.edges.valuesIterator.flatten.map(_.render)).distinct.sorted
      .containsSlice(Seq("ConstStr('a')", "ConstStr('a')b')")))
    assertBestLikeReference(dags, source)
  }

  test("best: a tie group larger than k, sorted by render and cut at k") {
    val source = Tokenizer.tokenize("1.1.1.1.1.1")
    val dags = Seq(Alignment.align(source, source))
    val group = groupCutAt(dags, source, 10)
    assert(group.size > 10 && group.sortBy(_.render) != group, s"group of ${group.size}")
    assertBestLikeReference(dags, source, ks = Seq(1, 10, 40, 1000))
  }

  test("best equals enumerate, rank and dedup on every corpus call") {
    assert(CorpusCalls.all.size == 286)
    for (call <- CorpusCalls.all; budget <- Budgets)
      assertPrefixesOfReference(call.dags, call.source, budget, s"${call.task}: ${call.source}")
  }

  test("best on Defect 1's `12 12 … 12` → `12-12-…-12` at 8, 10 and 20 tokens") {
    // 20²⁰ paths at 20 tokens, past the Long range: the search's path
    // counts must saturate at the budget
    for (n <- Seq(8, 10, 20)) {
      val source = Tokenizer.tokenize(Seq.fill(n)("12").mkString(" "))
      val target = Tokenizer.tokenize(Seq.fill(n)("12").mkString("-"))
      assertPrefixesOfReference(Seq(Alignment.align(target, source)), source, Alignment.PathBudget, s"$n tokens")
    }
  }

  test("best stops once every class is kept: 9 `-` literals, every path one word") {
    // 1 857 520 180 paths, all within the budget and all writing `---------`:
    // one class, whose best plan is the single Extract
    val source = Pattern(Vector.fill(9)(Token.lit("-")))
    val kept = Mdl.best(Seq(Alignment.align(source, source)), source, k = 40, budget = Int.MaxValue)
    assert(kept == Vector(Plan(Vector(Extract(1, 9)))))
  }

  test("the corpus calls of 27 classes each keep all 27 at k = 40") {
    val counts = CorpusCalls.all.map(c => (c, classCounts(c.dags, c.source).fold(Int.MaxValue)(_._2)))
    val of27 = counts.collect { case (c, 27) => c }
    assert(of27.map(_.task).groupBy(identity).view.mapValues(_.size).toMap == Map(
      "sygus-phone-10-long" -> 4, "ff-ex9-names" -> 7, "ff-ex13-conditional" -> 2, "ff-url" -> 2))
    of27.foreach(c => assert(Mdl.best(c.dags, c.source, 40).size == 27, s"${c.task}: ${c.source}"))
    assert(counts.count(_._2 < 40) == 213)
  }

  test("best keeps nothing without a feasible DAG or with k = 0") {
    val source = Tokenizer.tokenize("12")
    assert(Mdl.best(Nil, source, 10).isEmpty)
    assert(Mdl.best(Seq(Alignment.align(source, source)), source, 0).isEmpty)
  }
}
