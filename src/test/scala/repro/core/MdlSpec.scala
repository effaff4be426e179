package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.benchmark.Benchmarks
import repro.sim.ClxSim
import UniFi.{ConstStr, Extract, Plan}
import TokType.D

/** §6.3 MDL ranking (Eq. 3–6) and the paper's Example 9. */
class MdlSpec extends AnyFunSuite {

  private val e13 = Plan(Vector(Extract(1, 3)))
  private val split = Plan(Vector(Extract(1), ConstStr("/"), Extract(3)))

  test("model length of a single-op plan is zero (log2 1)") {
    assert(Mdl.modelLength(e13) == 0.0)
  }

  test("model length counts ops times log2 of distinct op types") {
    assert(Mdl.modelLength(split) == 3.0) // 3 ops, 2 types -> 3·log2(2)
  }

  test("data length of an Extract is log2 |P|^2") {
    assert(math.abs(Mdl.dataLength(e13, 5) - math.log(25) / math.log(2)) < 1e-9)
  }

  test("data length of a ConstStr is |s|·log2 95") {
    val c = Plan(Vector(ConstStr("ab")))
    assert(math.abs(Mdl.dataLength(c, 5) - 2 * math.log(95) / math.log(2)) < 1e-9)
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

  /** The ranking's definition: sort by the full key, computed up front. */
  private def reference(plans: Seq[Plan], sourceSize: Int): Vector[Plan] =
    plans.toVector
      .map(p => (p, (Mdl.length(p, sourceSize), p.exprs.size, Mdl.orderPenalty(p), p.render)))
      .sortBy(_._2)
      .map(_._1)

  private def assertRanksLikeReference(plans: Seq[Plan], sourceSize: Int): Unit = {
    val shuffled = new scala.util.Random(7).shuffle(plans)
    assert(Mdl.rank(plans, sourceSize) == reference(plans, sourceSize))
    assert(Mdl.rank(shuffled, sourceSize) == reference(shuffled, sourceSize))
  }

  /** Every (source, target) alignment a CLX session over `task` can rank:
    * each hierarchy node against each target it validates against.
    */
  private def planSets(task: Benchmarks.Task): Seq[(Pattern, Vector[Plan])] = {
    val targets = ClxSim.chooseTargets(task.data)
    val root = Synthesizer.hierarchyOf(task.data.map(_._1))
    for {
      node <- root.preOrder if !node.pattern.isEmpty && !targets.contains(node.pattern)
      t <- targets if Validate.validateAt(node.pattern, t, node.isLeaf)
      dag = Alignment.align(t, node.pattern) if dag.isFeasible
    } yield (node.pattern, dag.allPlans())
  }

  Seq("ff-phone-std", "ff-ex9-names", "pp-ex3-address", "prose-popl13").foreach { id =>
    test(s"rank equals the full-key sort on every alignment of $id") {
      val sets = planSets(Benchmarks.all.find(_.id == id).get)
      assert(sets.nonEmpty)
      sets.foreach { case (source, plans) => assertRanksLikeReference(plans, source.size) }
      if (id == "prose-popl13") assert(sets.exists(_._2.size == Alignment.PathBudget), "expected a capped plan set")
    }
  }

  test("render tie-break: Extract(10) sorts before Extract(9)") {
    val ten = Plan(Vector(Extract(10)))
    val nine = Plan(Vector(Extract(9)))
    assert(Mdl.rank(Seq(nine, ten), 12) == Vector(ten, nine))
    assertRanksLikeReference(Seq(nine, ten), 12)
  }

  test("render tie-break: Extract(1) sorts before Extract(1,2)") {
    val one = Plan(Vector(Extract(1), ConstStr("-"), Extract(3)))
    val oneTwo = Plan(Vector(Extract(1, 2), ConstStr("-"), Extract(3)))
    assert(Mdl.rank(Seq(oneTwo, one), 4) == Vector(one, oneTwo))
    assertRanksLikeReference(Seq(oneTwo, one), 4)
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
    assertRanksLikeReference(Seq(a, aQuoteB, a5, aQuoteSpace), 3)
  }

  test("render tie-break: tied plans that differ only in their last op") {
    // ~80 distinct op renders leave room for 9 ops in the packed prefix;
    // these plans share their first 9 ops and differ in the 10th
    val filler = (20 to 90).map(i => Plan(Vector(Extract(i))))
    val prefix = (1 to 9).map(Extract(_)).toVector
    val to11 = Plan(prefix :+ Extract(11))
    val to10 = Plan(prefix :+ Extract(10))
    val ranked = Mdl.rank(to11 +: to10 +: filler, 100)
    assert(ranked.indexOf(to10) < ranked.indexOf(to11))
    assertRanksLikeReference(to11 +: to10 +: filler, 100)
  }

  test("equal plans keep their input order") {
    val x = Plan(Vector(Extract(1)))
    val y = Plan(Vector(Extract(1)))
    val ranked = Mdl.rank(Seq(x, y), 3)
    assert(ranked(0) eq x)
    assert(ranked(1) eq y)
  }

  // The ranked walk `Mdl.best` against enumerate → rank → dedup.

  private val Budgets = Seq(1, 7, Alignment.PathBudget)

  /** `best`'s definition. */
  private def bestReference(dags: Seq[Alignment.Dag], source: Pattern, k: Int, budget: Int): Vector[Plan] =
    Dedup.dedup(Mdl.rank(dags.flatMap(_.allPlans(budget)), source.size), source, maxKeep = k)

  /** Equal plans built from the same op instances: the walk keeps the very
    * path the reference keeps, not just an equal plan from another DAG.
    */
  private def samePaths(a: Vector[Plan], b: Vector[Plan]): Boolean =
    a == b && a.zip(b).forall { case (x, y) => x.exprs.corresponds(y.exprs)(_ eq _) }

  private def assertBestLikeReference(dags: Seq[Alignment.Dag], source: Pattern, ks: Seq[Int] = Seq(1, 10, 40)): Unit =
    for (budget <- Budgets; k <- ks) {
      val walked = Mdl.best(dags, source, k, budget)
      val reference = bestReference(dags, source, k, budget)
      assert(samePaths(walked, reference), s"budget $budget, k $k: ${walked.map(_.render)} vs ${reference.map(_.render)}")
    }

  /** Op renders over the DAGs' edges, sorted, and how many op ranks fit the packed head. */
  private def packedOps(dags: Seq[Alignment.Dag]): (Vector[String], Int) = {
    val renders = dags.flatMap(_.edges.valuesIterator.flatten.map(_.render)).distinct.sorted.toVector
    (renders, 63 / math.max(1, 32 - Integer.numberOfLeadingZeros(renders.size)))
  }

  /** Two plans of `plans` with an equal key and equal packed ops that differ later. */
  private def tieRunsPastHead(plans: Seq[Plan], sourceSize: Int, packed: Int): Boolean =
    plans.groupBy(p => (Mdl.length(p, sourceSize), p.exprs.size, Mdl.orderPenalty(p), p.exprs.take(packed)))
      .exists { case ((_, size, _, _), ps) => size > packed && ps.distinct.size > 1 }

  /** A target aligned against `source`: copies of its tokens, tokens from
    * the shared generator, and the literals `a` and `a')b`, whose ConstStr
    * renders clash by prefix.
    */
  private def target(source: Pattern): Gen[Pattern] =
    Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.frequency(
      6 -> Gen.oneOf(source.tokens),
      2 -> PatternGen.tokens,
      1 -> Gen.oneOf(Token.lit("a"), Token.lit("a')b"))))).map(ts => Pattern(ts.toVector))

  test("best equals enumerate, rank and dedup over random sources and 1-3 validated targets") {
    var clashes, unions, sharedPlans = 0
    val cases = (for {
      source <- PatternGen.patterns(1, 6)
      firsts <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, target(source)))
      // a repeated target puts one plan in two DAGs
      targets <- Gen.oneOf(Gen.const(firsts), Gen.const(firsts :+ firsts.head))
    } yield (source, targets.filter(Validate.validateAt(source, _, isLeaf = true)).take(3)))
      .suchThat(_._2.nonEmpty)
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500),
      Prop.forAllNoShrink(cases) { case (source, targets) =>
        val dags = targets.map(Alignment.align(_, source)).filter(_.isFeasible)
        val renders = packedOps(dags)._1
        if ((1 until renders.size).exists(r => renders(r).startsWith(renders(r - 1)))) clashes += 1
        if (dags.size > 1) unions += 1
        if (dags.size > 1 && dags.map(_.allPlans(7).toSet).reduce(_ intersect _).nonEmpty) sharedPlans += 1
        assertBestLikeReference(dags, source)
        true
      })
    assert(res.passed, res.status.toString)
    assert(clashes > 10 && unions > 50 && sharedPlans > 10, s"clashes=$clashes unions=$unions shared=$sharedPlans")
  }

  test("best: ConstStr renders that clash by prefix across two DAGs") {
    val source = Pattern.of(Token(D, 2), Token.lit("-"), Token(D, 2))
    val t1 = Pattern.of(Token.lit("a"), Token.lit("')b"), Token(D, 2))
    val t2 = Pattern.of(Token.lit("a')b"), Token(D, 2))
    val dags = Seq(t1, t2).map(Alignment.align(_, source))
    assert(packedOps(dags)._1.containsSlice(Seq("ConstStr('a')", "ConstStr('a')b')")))
    assertBestLikeReference(dags, source)
  }

  test("best: ties that run past the packed head") {
    val source = Tokenizer.tokenize("1.1.1.1.1.1")
    val dags = Seq(Alignment.align(source, source))
    val packed = packedOps(dags)._2
    assert(tieRunsPastHead(dags.head.allPlans(), source.size, packed), s"packed $packed")
    assertBestLikeReference(dags, source, ks = Seq(1, 10, 40, 1000))
  }

  test("best keeps nothing without a feasible DAG or with k = 0") {
    val source = Tokenizer.tokenize("12")
    assert(Mdl.best(Nil, source, 10).isEmpty)
    assert(Mdl.best(Seq(Alignment.align(source, source)), source, 0).isEmpty)
  }
}
