package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.benchmark.Benchmarks
import repro.sim.ClxSim

/** Cross-cutting invariants of the clustering/synthesis pipeline. */
class InvariantSpec extends AnyFunSuite {

  private val corpusStrings: Vector[String] =
    Benchmarks.all.take(12).flatMap(_.data.map(_._1)).distinct

  test("hierarchy: every string matches its leaf and every ancestor pattern") {
    val strings = Vector("734-422-8073", "Bob123@gmail.com", "N/A", "(12) 34", "x_y-z")
    val root = Hierarchy.root(Hierarchy.build(ClusterProfile.of(strings).leaves.toSeq))
    def check(node: Hierarchy.PNode, members: Seq[String]): Unit = {
      members.foreach(s => assert(node.pattern.isEmpty || node.pattern.matches(s),
        s"'$s' should match ${node.pattern.render}"))
      node.children.foreach { c =>
        check(c, members.filter(s => c.leaves.exists(_.pattern.matches(s))))
      }
    }
    check(root, strings)
  }

  test("hierarchy levels only generalize: child count sums equal parent count") {
    val clusters = corpusStrings.groupBy(Tokenizer.tokenize).map { case (p, ss) => (p, ss.size.toLong) }
    Hierarchy.build(clusters.toSeq).foreach { rootNode =>
      rootNode.preOrder.filterNot(_.isLeaf).foreach { n =>
        assert(n.children.map(_.count).sum == n.count, n.pattern.render)
      }
    }
  }

  test("generalization strategies are idempotent on their own output") {
    corpusStrings.take(50).foreach { s =>
      val p = Tokenizer.tokenize(s)
      val g1 = Hierarchy.getParent(p, Hierarchy.strategy1)
      assert(Hierarchy.getParent(g1, Hierarchy.strategy1) == g1)
      val g3 = Hierarchy.getParent(
        Hierarchy.getParent(g1, Hierarchy.strategy2), Hierarchy.strategy3)
      assert(Hierarchy.getParent(g3, Hierarchy.strategy3) == g3)
    }
  }

  test("strategy chain preserves matching (ancestors accept their strings)") {
    corpusStrings.take(80).foreach { s =>
      var p = Tokenizer.tokenize(s)
      Hierarchy.strategies.foreach { g =>
        p = Hierarchy.getParent(p, g)
        assert(p.matches(s), s"'$s' vs ${p.render}")
      }
    }
  }

  test("phone-10 target gets its constant '+1 (' prefix from constant discovery") {
    val data = Benchmarks.all.find(_.id == "sygus-phone-10-long").get.data
    val targets = ClxSim.chooseTargets(data)
    assert(targets.size == 1)
    val r = targets.head.render
    assert(r.contains("'+'") && r.contains("'1'"), r)
  }

  test("every solved branch's plans evaluate on every matching corpus record") {
    val data = Benchmarks.all.find(_.id == "ff-phone-std").get.data
    val targets = ClxSim.chooseTargets(data)
    val res = Synthesizer.synthesize(Synthesizer.hierarchyOf(data.map(_._1)), targets)
    for {
      sol <- res.solutions
      (in, _) <- data if sol.source.matches(in)
      plan <- sol.plans
    } assert(sol.source.split(in).flatMap(plan.eval).isDefined,
      s"${plan.render} on '$in'")
  }

  test("synthesized branch plans always produce target-pattern output") {
    val data = Benchmarks.all.find(_.id == "sygus-phone-10-long").get.data
    val targets = ClxSim.chooseTargets(data)
    val res = Synthesizer.synthesize(Synthesizer.hierarchyOf(data.map(_._1)), targets)
    for {
      sol <- res.solutions
      (in, _) <- data.take(60) if sol.source.matches(in)
      out <- sol.source.split(in).flatMap(sol.default.eval)
    } assert(targets.exists(_.matches(out)), s"'$in' -> '$out'")
  }

  test("leaf clusters partition the input (counts sum to input size)") {
    val strings = corpusStrings.take(100)
    assert(Synthesizer.leafClusters(strings).values.sum == strings.size)
  }

  test("Program.applyFlagged is total: every string gets an output") {
    val data = Benchmarks.all.find(_.id == "bf-ex3-cpt").get.data
    val o = ClxSim.run(data)
    (data.map(_._1) ++ Vector("", "completely unrelated ~~~", "ZZZ999")).foreach { s =>
      val (out, _) = o.program.applyFlagged(s)
      assert(out != null)
    }
  }
}
