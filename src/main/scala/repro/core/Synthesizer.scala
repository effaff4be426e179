package repro.core

import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveTask}
import Hierarchy.PNode
import UniFi.{Plan, Program, Branch}

/** §6 program synthesis (Algorithm 2).
  *
  * Traverses the pattern cluster hierarchy top-down; a node that passes
  * `validateAt` against some target is solved (aligned, plans ranked by MDL
  * and deduplicated) and its subtree is not descended; otherwise its
  * children are decided. Unsolvable leaves are reported as noise — their
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
    def program(targets: Seq[Pattern]): Program = programWith(targets, Map.empty)

    /** Program with per-source plan choices (after repair). `choices` maps
      * source pattern → index into the ranked plan list; an index past the
      * list is an error.
      */
    def programWith(targets: Seq[Pattern], choices: Map[Pattern, Int]): Program =
      Program(targets.toVector, solutions.map(s => Branch(s.source, s.plans(choices.getOrElse(s.source, 0)))))
  }

  /** Algorithm 2 over a hierarchy root and the selected target patterns.
    *
    * A source's candidate plans are the union of its plans toward every
    * target it validates against, ranked by MDL and deduplicated once, in one
    * best-first search (`Mdl.best`). An MDL rank key belongs to one plan and
    * Appendix B classes are equal words, so this keeps the same plans as
    * ranking and deduplicating per target first.
    *
    * Each node's outcome is decided as a fork/join task in
    * `ForkJoinPool.commonPool()`: an expanding node forks its children with
    * `ForkJoinTask.invokeAll`. An outcome reads only the node's pattern, its
    * leaf flag, the targets and `k`, and its callees (`Validate.validateAt`,
    * `Alignment.align`, `Mdl.best`) share no mutable state, so the tasks are
    * independent; the finished outcome tree is then walked breadth first,
    * which lists solutions and noise in the order of Algorithm 2's queue.
    * Safe to call from several threads at once.
    *
    * A node that counts no strings is skipped: the root of an empty or
    * all-null column synthesizes to an empty `Result`.
    */
  def synthesize(root: PNode, targets: Seq[Pattern], k: Int = 10): Result = {
    val top = ForkJoinPool.commonPool().invoke(new Decide(root, targets, targets.toSet, k))
    val solutions = Vector.newBuilder[SourceSolution]
    val noise = Vector.newBuilder[Pattern]
    val queue = scala.collection.mutable.Queue[Outcome](top)
    while (queue.nonEmpty) queue.dequeue() match {
      case Skip          => ()
      case Solved(s)     => solutions += s
      case Noise(p)      => noise += p
      case Expand(inner) => queue.enqueueAll(inner)
    }
    Result(solutions.result(), noise.result())
  }

  /** What Algorithm 2 does with one hierarchy node. */
  private sealed trait Outcome
  /** Already in a desired form, or covering no strings. */
  private case object Skip extends Outcome
  private final case class Solved(solution: SourceSolution) extends Outcome
  /** An unsolved leaf. */
  private final case class Noise(pattern: Pattern) extends Outcome
  /** The synthetic root or an unsolved inner node: its children's outcomes. */
  private final case class Expand(children: Vector[Outcome]) extends Outcome

  /** Decides `node`'s outcome, forking its children when it expands. */
  private final class Decide(node: PNode, targets: Seq[Pattern], targetSet: Set[Pattern], k: Int)
      extends RecursiveTask[Outcome] {

    protected def compute(): Outcome = {
      val p = node.pattern
      // An empty column's childless root counts no strings. Then the
      // synthetic root; the empty string's leaf shares its empty pattern
      // but is a leaf, and is validated like any other.
      if (node.count == 0) Skip
      else if (p.isEmpty && !node.isLeaf) expand()
      else if (targetSet.contains(p)) Skip
      else {
        val validated = targets.filter(t => Validate.validateAt(p, t, node.isLeaf))
        val plans = Mdl.best(validated.map(Alignment.align(_, p)), p, k)
        if (plans.nonEmpty) Solved(SourceSolution(p, plans))
        else if (node.isLeaf) Noise(p)
        else expand()
      }
    }

    private def expand(): Outcome = {
      val tasks = node.children.map(new Decide(_, targets, targetSet, k))
      ForkJoinTask.invokeAll(tasks: _*)
      Expand(tasks.map(_.join()))
    }
  }

  /** Cluster + constant-discover + build hierarchy for a string column. */
  def hierarchyOf(strings: Seq[String]): PNode = ClusterProfile.of(strings).hierarchy()

  /** Leaf pattern of each distinct string form, with constant discovery
    * and counts — the cluster listing shown to the user for labeling (Fig. 3).
    */
  def leafClusters(strings: Seq[String]): Map[Pattern, Long] =
    ClusterProfile.of(strings).clusters()
}
