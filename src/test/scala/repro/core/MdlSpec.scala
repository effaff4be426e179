package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.benchmark.Benchmarks
import repro.sim.ClxSim
import UniFi.{ConstStr, Extract, Plan}

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
      if (id == "prose-popl13") assert(sets.exists(_._2.size == 50000), "expected a capped plan set")
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
}
