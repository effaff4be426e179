package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks
import repro.sim.ClxSim

/** §6 end-to-end synthesis (Algorithm 2), including the paper's Table 3
  * and Table 4 tasks and its worked examples.
  */
class SynthesizerSpec extends AnyFunSuite with AsciiMessages {

  import PatternGen.p

  /** The `k` best plans of one (source, target) alignment. */
  private def plansFor(source: Pattern, target: Pattern, k: Int): Vector[UniFi.Plan] =
    Mdl.best(Seq(Alignment.align(target, source)), source, k)

  test("plansFor finds the phone normalization plan (Examples 8/9 machinery)") {
    val plans = plansFor(p("734.645.8397"), p("(201) 555-0100"), k = 10)
    assert(plans.nonEmpty)
    val vals = p("734.645.8397").split("734.645.8397").get
    assert(plans.head.eval(vals).contains("(734) 645-8397"))
  }

  test("plansFor is empty when alignment is infeasible") {
    assert(plansFor(p("abc"), p("123"), k = 10).isEmpty)
  }

  test("plans are deduplicated (no equivalent suggestions)") {
    val src = p("12/02/2017")
    val plans = plansFor(src, p("12/02"), k = 10)
    for (i <- plans.indices; j <- (i + 1) until plans.size)
      assert(Dedup.word(plans(i), src) != Dedup.word(plans(j), src),
        s"${plans(i).render} equivalent to ${plans(j).render}")
  }

  test("synthesize solves at the most general validating level") {
    val strings = Seq("John Smith", "Mary Jones", "Kate Brown", "Anna", "Lisa", "Nina")
    val root = Synthesizer.hierarchyOf(strings)
    val target = Pattern.of(Token(TokType.U, 1), Token(TokType.L, Quant.Plus))
    val res = Synthesizer.synthesize(root, Seq(target))
    // one generalized branch covers all "First Last" shapes
    val fullNameBranches = res.solutions.filter(_.source.size > 2)
    assert(fullNameBranches.size == 1)
    assert(fullNameBranches.head.source.render == "<U>+<L>+' '<U>+<L>+")
  }

  test("noise leaves are reported, not solved (§6.1)") {
    val strings = Seq("734-422-8073", "734-236-3466", "N/A", "N/A")
    val root = Synthesizer.hierarchyOf(strings)
    val res = Synthesizer.synthesize(root, Seq(p("(734) 645-8397")))
    assert(res.noise.nonEmpty)
  }

  test("empty strings among phones are reported as noise") {
    val strings = Seq("734-422-8073", "", "734.236.3466", "", "(201) 555-0100")
    val target = p("(734) 645-8397")
    val root = Synthesizer.hierarchyOf(strings)
    val res = Synthesizer.synthesize(root, Seq(target))
    assert(res.noise == Vector(Pattern.empty))
    // Every record is solved, already in the target form, or noise.
    val solved = root.preOrder.filter(n => res.solutions.exists(_.source == n.pattern)).flatMap(_.leaves)
    val accounted = root.leaves.filter(l => solved.contains(l) || l.pattern == target || res.noise.contains(l.pattern))
    assert(accounted.map(_.count).sum == strings.size)
  }

  test("a column of only empty strings is noise") {
    val root = Synthesizer.hierarchyOf(Seq("", "", ""))
    assert(root.isLeaf && root.pattern.isEmpty && root.count == 3)
    assert(Synthesizer.synthesize(root, Seq(p("(734) 645-8397"))) ==
      Synthesizer.Result(Vector.empty, Vector(Pattern.empty)))
  }

  test("an empty hierarchy synthesizes to an empty result") {
    val root = Synthesizer.hierarchyOf(Seq.empty)
    assert(root.count == 0)
    // a class target and an all-literal one
    for (target <- Seq(p("(734) 645-8397"), Pattern.of(Token.lit("N"), Token.lit("/"), Token.lit("A"))))
      assert(Synthesizer.synthesize(root, Seq(target)) == Synthesizer.Result(Vector.empty, Vector.empty),
        target.render)
  }

  test("program leaves noise unchanged and flagged") {
    val strings = Seq("734-422-8073", "N/A", "N/A")
    val res = Synthesizer.synthesize(Synthesizer.hierarchyOf(strings), Seq(p("(734) 645-8397")))
    val prog = res.program(Seq(p("(734) 645-8397")))
    assert(prog.applyFlagged("N/A") == ("N/A", false))
    assert(prog.applyFlagged("734-422-8073")._2)
  }

  test("Table 3: medical billing codes normalize exactly as the paper") {
    val data = Benchmarks.all.find(_.id == "bf-ex3-cpt").get.data
    val outcome = ClxSim.run(data)
    assert(outcome.perfect, s"failures=${outcome.failures}")
    // the paper's four rows specifically
    val paperRows = Seq(
      "CPT-00350" -> "[CPT-00350]",
      "[CPT-00340" -> "[CPT-00340]",
      "[CPT-11536]" -> "[CPT-11536]",
      "CPT115" -> "[CPT-115]",
    )
    paperRows.foreach { case (in, out) =>
      assert(outcome.program.applyFlagged(in)._1 == out, s"for $in")
    }
  }

  test("Table 3: the selected target is the paper's T = ['[', U+, '-', D+, ']']") {
    val data = Benchmarks.all.find(_.id == "bf-ex3-cpt").get.data
    val targets = ClxSim.chooseTargets(data)
    assert(targets.map(_.render) == Vector("'['<U>+'-'<D>+']'"))
  }

  test("Table 4: name normalization reaches the paper's outputs") {
    val data = Benchmarks.all.find(_.id == "ff-ex9-names").get.data
    val outcome = ClxSim.run(data)
    assert(outcome.perfect, s"failures=${outcome.failures}")
    val paperRows = Seq(
      "Dr. Eran Yahav" -> "Yahav, E.",
      "Fisher, K." -> "Fisher, K.",
      "Bill Gates, Sr." -> "Gates, B.",
      "Oege de Moor" -> "Moor, O.",
    )
    paperRows.foreach { case (in, out) =>
      assert(outcome.program.applyFlagged(in)._1 == out, s"for $in")
    }
  }

  test("programWith honors repair choices") {
    val strings = Seq("938-242-504", "837-123-456", "938", "242")
    val root = Synthesizer.hierarchyOf(strings)
    val target = Pattern.of(Token(TokType.D, 3))
    val res = Synthesizer.synthesize(root, Seq(target))
    val sol = res.solutions.head
    assert(sol.plans.size >= 2)
    val p0 = res.programWith(Seq(target), Map.empty)
    val p1 = res.programWith(Seq(target), Map(sol.source -> 1))
    assert(p0("938-242-504") != p1("938-242-504"))
    assert(p0 == res.program(Seq(target)))
    // a choice past the ranked list is an error, not the last plan
    intercept[IndexOutOfBoundsException](res.programWith(Seq(target), Map(sol.source -> sol.plans.size)))
  }

  test("synthesize skips target patterns themselves") {
    val strings = Seq("123-456", "789-012", "111.222")
    val target = p("123-456")
    val res = Synthesizer.synthesize(Synthesizer.hierarchyOf(strings), Seq(target))
    assert(!res.solutions.exists(_.source == target))
  }

  test("multi-target synthesis merges candidate plans") {
    val strings = Seq("John Smith, MIT, USA", "Jane Roe, UCLA, USA")
    val root = Synthesizer.hierarchyOf(strings)
    val t1 = Pattern.of(Token(TokType.U, Quant.Plus))
    val res = Synthesizer.synthesize(root, Seq(t1))
    assert(res.solutions.nonEmpty)
    assert(res.solutions.head.plans.nonEmpty)
  }

  test("hierarchyOf merges clusters that collapse under constant discovery") {
    val strings = Seq("AB1", "AB2", "AB3")
    val root = Synthesizer.hierarchyOf(strings)
    assert(root.leaves.map(_.count).sum == 3)
  }

  test("leafClusters reports pattern frequencies (Fig. 3 view)") {
    val strings = Seq("a1", "b2", "c3", "x-y")
    val clusters = Synthesizer.leafClusters(strings)
    assert(clusters.values.sum == 4)
    assert(clusters(Tokenizer.tokenize("a1")) == 3)
  }

  test("suggestion list cap k is honored") {
    val res = Synthesizer.synthesize(
      Synthesizer.hierarchyOf(Seq("1.2.3.4", "5.6.7.8", "1234")), Seq(p("9.9.9.9")), k = 3)
    res.solutions.foreach(s => assert(s.plans.size <= 3))
  }

  test("paper Example 6 shape: Bill Gates, Sr. branch produces Gates, B.") {
    val data = Benchmarks.all.find(_.id == "ff-ex9-names").get.data
    val outcome = ClxSim.run(data)
    assert(outcome.program.applyFlagged("Sumit Gulwani, Sr.")._1 == "Gulwani, S.")
  }

  /** Algorithm 2 as a sequential queue loop, with the plans of each validated
    * target ranked and deduplicated on their own, then their union ranked and
    * deduplicated again.
    * `capped` counts the DAGs whose enumeration stopped at the path budget.
    */
  private def rankPerTargetFirst(root: Hierarchy.PNode, targets: Seq[Pattern], k: Int, capped: () => Unit): Synthesizer.Result = {
    val solutions = Vector.newBuilder[Synthesizer.SourceSolution]
    val noise = Vector.newBuilder[Pattern]
    val queue = scala.collection.mutable.Queue(root)
    while (queue.nonEmpty) {
      val node = queue.dequeue()
      val p = node.pattern
      if (node.count == 0) ()
      else if (p.isEmpty && !node.isLeaf) queue.enqueueAll(node.children)
      else if (!targets.contains(p)) {
        val perTarget = targets.filter(Validate.validateAt(p, _, node.isLeaf)).flatMap { t =>
          val dag = Alignment.align(t, p)
          val all = if (dag.isFeasible) dag.allPlans() else Vector.empty
          if (all.size == Alignment.PathBudget) capped()
          Dedup.dedup(Mdl.rank(all, p.size), p, maxKeep = k)
        }
        val plans = Dedup.dedup(Mdl.rank(perTarget, p.size), p, maxKeep = k)
        if (plans.nonEmpty) solutions += Synthesizer.SourceSolution(p, plans)
        else if (node.isLeaf) noise += p
        else queue.enqueueAll(node.children)
      }
    }
    Synthesizer.Result(solutions.result(), noise.result())
  }

  test("one rank-and-dedup equals ranking per target first (47 tasks)") {
    assert(Benchmarks.all.size == 47)
    for (k <- Seq(10, 40)) {
      val capped = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
      for (task <- Benchmarks.all) {
        val targets = ClxSim.chooseTargets(task.data)
        val root = Synthesizer.hierarchyOf(task.data.map(_._1))
        val reference = rankPerTargetFirst(root, targets, k, () => capped(task.id) += 1)
        assert(Synthesizer.synthesize(root, targets, k) == reference, s"${task.id}, k = $k")
      }
      // the search stopped at the path budget where the reference did
      assert(capped.toMap == Map("prose-popl13" -> 6), s"k = $k")
    }
  }

  /** Phones in five non-target formats and the target one, plus `noise`
    * digit-free strings of 6–14 characters over letters, `.` and `-`, which
    * spread over thousands of leaf patterns that no phone target validates.
    */
  private def longTail(noise: Int): Seq[String] = {
    val rnd = new scala.util.Random(11)
    def d(n: Int) = Seq.fill(n)(rnd.nextInt(10)).mkString
    val formats = Seq[(String, String, String) => String](
      (a, b, c) => s"($a) $b-$c", (a, b, c) => s"($a)$b-$c", (a, b, c) => s"$a-$b-$c",
      (a, b, c) => s"$a.$b.$c", (a, b, c) => s"$a $b $c", (a, b, c) => s"+1 $a-$b-$c")
    val phones = Seq.fill(600)(formats(rnd.nextInt(formats.size))(d(3), d(3), d(4)))
    val alphabet = "abcdefGHIJKLMN.-"
    phones ++ Seq.fill(noise)(Seq.fill(6 + rnd.nextInt(9))(alphabet(rnd.nextInt(alphabet.length))).mkString)
  }

  private val phoneTarget = Seq(p("(734) 645-8397"))

  test("synthesize equals the sequential reference on a long-tail hierarchy") {
    val root = Synthesizer.hierarchyOf(longTail(4000))
    assert(root.leaves.size > 3000)
    for (k <- Seq(10, 40)) {
      val reference = rankPerTargetFirst(root, phoneTarget, k, () => ())
      assert(reference.solutions.size == 5 && reference.noise.size > 3000)
      assert(Synthesizer.synthesize(root, phoneTarget, k) == reference, s"k = $k")
    }
  }

  test("synthesize called from 8 threads at once on one root equals the reference") {
    val root = Synthesizer.hierarchyOf(longTail(2000))
    val reference = rankPerTargetFirst(root, phoneTarget, 10, () => ())
    val pool = java.util.concurrent.Executors.newFixedThreadPool(8)
    try {
      val start = new java.util.concurrent.CountDownLatch(1)
      val runs = (1 to 8).map { _ =>
        pool.submit(new java.util.concurrent.Callable[Synthesizer.Result] {
          def call(): Synthesizer.Result = { start.await(); Synthesizer.synthesize(root, phoneTarget) }
        })
      }
      start.countDown()
      runs.foreach(r => assert(r.get() == reference))
    } finally pool.shutdown()
  }

  /** `12 12 … 12` (n numbers) and its target `12-12-…-12`. */
  private def repeatedNumbers(n: Int): (Pattern, Pattern) =
    (p(Seq.fill(n)("12").mkString(" ")), p(Seq.fill(n)("12").mkString("-")))

  /** Extract(1), '-', Extract(3), '-', …, Extract(2n-1). */
  private def inOrder(n: Int): UniFi.Plan =
    UniFi.Plan((1 to n).flatMap(i => Seq(UniFi.Extract(2 * i - 1), UniFi.ConstStr("-"))).init.toVector)

  test("at 6 same-class tokens every path is ranked and the default plan keeps order") {
    val (source, target) = repeatedNumbers(6)
    assert(Alignment.align(target, source).allPlans().size < Alignment.PathBudget)
    assert(plansFor(source, target, k = 10).head == inOrder(6))
  }

  test("Defect 1: at 8 and 10 same-class tokens the path budget hides the default plan") {
    // The first PathBudget paths all begin Extract(1), '-', Extract(1), …;
    // an exact k-best search over every path fixes this.
    pendingUntilFixed {
      for (n <- Seq(8, 10)) {
        val (source, target) = repeatedNumbers(n)
        assert(plansFor(source, target, k = 10).head == inOrder(n), s"$n tokens")
      }
    }
  }
}
