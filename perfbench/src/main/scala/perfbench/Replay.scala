package perfbench

import repro.core._
import repro.core.Hierarchy.PNode
import repro.core.UniFi.Plan
import repro.sim.ClxSim

/** Traced re-runs of `Synthesizer.synthesize` and `ClxSim.run`, made of the
  * same public calls in the same order, with a span or a counter around each
  * call. The traced run checks that a replay reaches the same result as the
  * entry point it mirrors.
  */
object Replay {

  /** `Alignment.Dag.allPlans` stops at this many plans by default. */
  val EnumerationCap = 50000

  private def plansFor(source: Pattern, target: Pattern, k: Int, tr: Tracer): Vector[Plan] = {
    val dag = tr.span("synth.align")(Alignment.align(target, source))
    tr.add("synth.dag_edges", dag.edges.valuesIterator.map(_.size).sum)
    if (!dag.isFeasible) Vector.empty
    else {
      val all = tr.span("synth.enumerate")(dag.allPlans())
      tr.add("synth.plans_enumerated", all.size)
      if (all.size >= EnumerationCap) tr.add("synth.cap_hits")
      val ranked = tr.span("synth.rank")(Mdl.rank(all, source.size))
      tr.span("synth.dedup")(Dedup.dedup(ranked, source, maxKeep = k))
    }
  }

  private def validateAt(p: Pattern, t: Pattern, leaf: Boolean, tr: Tracer): Boolean = {
    val ok = tr.span("synth.validate")(Validate.validateAt(p, t, leaf))
    tr.add("synth.validate_calls")
    if (ok) tr.add("synth.validate_accepted")
    ok
  }

  /** Algorithm 2, as `Synthesizer.synthesize` runs it. */
  def synthesize(root: PNode, targets: Seq[Pattern], k: Int, tr: Tracer): Synthesizer.Result =
    tr.span("synth.synthesize") {
      val targetSet = targets.toSet
      val solutions = Vector.newBuilder[Synthesizer.SourceSolution]
      val noise = Vector.newBuilder[Pattern]
      val queue = scala.collection.mutable.Queue[PNode](root)
      while (queue.nonEmpty) {
        val node = queue.dequeue()
        val p = node.pattern
        if (p.isEmpty) queue.enqueueAll(node.children)
        else if (targetSet.contains(p)) ()
        else {
          val plans =
            if (targets.exists(t => validateAt(p, t, node.isLeaf, tr))) {
              val all = targets.flatMap { t =>
                if (validateAt(p, t, node.isLeaf, tr)) plansFor(p, t, k, tr) else Vector.empty
              }
              val ranked = tr.span("synth.rank")(Mdl.rank(all, p.size))
              tr.span("synth.dedup")(Dedup.dedup(ranked, p, maxKeep = k))
            } else Vector.empty[Plan]
          tr.add("synth.plans_kept", plans.size)
          if (plans.nonEmpty) solutions += Synthesizer.SourceSolution(p, plans)
          else if (node.isLeaf) noise += p
          else queue.enqueueAll(node.children)
        }
      }
      val result = Synthesizer.Result(solutions.result(), noise.result())
      tr.add("synth.solutions", result.solutions.size)
      tr.add("synth.noise_patterns", result.noise.size)
      result
    }

  /** Leaf clusters and the hierarchy over them, as `Synthesizer.hierarchyOf`
    * builds it.
    */
  def hierarchyOf(strings: Seq[String], tr: Tracer): PNode = {
    val leaves = tr.span("core.leaf_clusters")(Synthesizer.leafClusters(strings))
    tr.span("hierarchy.build")(Hierarchy.root(Hierarchy.build(leaves.toSeq)))
  }

  /** The simulated CLX user of `ClxSim.run`. */
  def simulate(data: Seq[(String, String)], tr: Tracer, k: Int = 40): ClxSim.Outcome =
    tr.span("sim.run") {
      val targets = tr.span("sim.choose_targets")(ClxSim.chooseTargets(data))
      val root = tr.span("sim.hierarchy")(hierarchyOf(data.map(_._1), tr))
      val result = synthesize(root, targets, k, tr)
      tr.span("sim.repair_apply") {
        val pending = data.filterNot { case (in, _) => targets.exists(_.matches(in)) }
        val assigned = pending.groupBy { case (in, _) =>
          result.solutions.find(_.source.matches(in)).map(_.source).getOrElse(Pattern.empty)
        }
        var repairs = 0
        val choices = scala.collection.mutable.Map.empty[Pattern, Int]
        result.solutions.foreach { sol =>
          assigned.get(sol.source).foreach { recs =>
            def planCorrect(p: Plan): Boolean =
              recs.forall { case (in, out) => sol.source.split(in).flatMap(p.eval).contains(out) }
            val idx = sol.plans.indexWhere(planCorrect)
            if (idx > 0) { repairs += 1; choices(sol.source) = idx }
          }
        }
        val program = result.programWith(targets, choices.toMap)
        val failures = data.count { case (in, out) => program.applyFlagged(in)._1 != out }
        ClxSim.Outcome(targets.size, repairs, failures, failures == 0, targets, program, result.noise.size)
      }
    }
}
