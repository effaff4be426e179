package repro.core

import Hierarchy.PNode
import UniFi.{Plan, Program, Branch}

/** §6 program synthesis (Algorithm 2).
  *
  * Traverses the pattern cluster hierarchy top-down; a node that passes
  * `validate` against some target is solved (aligned, plans ranked by MDL
  * and deduplicated) and its subtree is not descended; otherwise its
  * children are enqueued. Unsolvable leaves are reported as noise — their
  * strings are "left unchanged and flagged for additional review" (§6.1).
  */
object Synthesizer {

  /** Ranked transformation plans for one solved source pattern.
    *
    * `plans` are MDL-ranked and deduplicated, capped at `k`; `plans.head`
    * is the default plan, the rest are the repair suggestions (§6.4).
    */
  final case class SourceSolution(source: Pattern, plans: Vector[Plan]) {
    def default: Plan = plans.head
  }

  final case class Result(solutions: Vector[SourceSolution], noise: Vector[Pattern]) {
    /** Program using every solution's default plan. */
    def program(targets: Seq[Pattern]): Program =
      Program(targets.toVector, solutions.map(s => Branch(s.source, s.default)))

    /** Program with per-source plan choices (after repair). `choices` maps
      * source pattern → index into the ranked plan list.
      */
    def programWith(targets: Seq[Pattern], choices: Map[Pattern, Int]): Program =
      Program(
        targets.toVector,
        solutions.map { s =>
          val i = choices.getOrElse(s.source, 0)
          Branch(s.source, s.plans(math.min(i, s.plans.size - 1)))
        },
      )
  }

  /** The `k` best plans of one (source, target) alignment, one per
    * Appendix B class.
    */
  def plansFor(source: Pattern, target: Pattern, k: Int): Vector[Plan] =
    Mdl.best(Seq(Alignment.align(target, source)), source, k)

  /** Algorithm 2 over a hierarchy root and the selected target patterns.
    *
    * A source's candidate plans are the union of its plans toward every
    * target it validates against, ranked by MDL and deduplicated once, in one
    * ranked walk (`Mdl.best`). An MDL rank key belongs to one plan and
    * Appendix B classes are equal words, so this keeps the same plans as
    * ranking and deduplicating per target first.
    */
  def synthesize(root: PNode, targets: Seq[Pattern], k: Int = 10): Result = {
    val targetSet = targets.toSet
    val solutions = Vector.newBuilder[SourceSolution]
    val noise = Vector.newBuilder[Pattern]
    val queue = scala.collection.mutable.Queue[PNode](root)

    while (queue.nonEmpty) {
      val node = queue.dequeue()
      val p = node.pattern
      // The synthetic root; the empty string's leaf shares its empty
      // pattern but is a leaf, and is validated like any other.
      if (p.isEmpty && !node.isLeaf) queue.enqueueAll(node.children)
      else if (targetSet.contains(p)) () // already in a desired form
      else {
        val validated = targets.filter(t => Validate.validateAt(p, t, node.isLeaf))
        val plans = Mdl.best(validated.map(Alignment.align(_, p)), p, k)
        if (plans.nonEmpty) solutions += SourceSolution(p, plans)
        else if (node.isLeaf) noise += p
        else queue.enqueueAll(node.children)
      }
    }
    Result(solutions.result(), noise.result())
  }

  /** Cluster + constant-discover + build hierarchy for a string column. */
  def hierarchyOf(strings: Seq[String]): PNode =
    Hierarchy.root(Hierarchy.build(leafClusters(strings).toSeq))

  /** Leaf pattern of each distinct string form, with counts — the cluster
    * listing shown to the user for labeling (Fig. 3).
    */
  def leafClusters(strings: Seq[String], constantDiscovery: Boolean = true): Map[Pattern, Long] = {
    val profile = ClusterProfile.of(strings)
    if (constantDiscovery) profile.clusters() else profile.leaves
  }
}
