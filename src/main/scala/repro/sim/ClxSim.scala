package repro.sim

import repro.core._

/** §7.4 simulated lazy CLX user.
  *
  * The simulated user: (1) selects the target pattern(s) among the
  * discovered clusters — one Step per selection; (2) for each source
  * pattern whose default atomic transformation plan is wrong on its own
  * records, repairs by walking the ranked suggestion list — one Step per
  * replacement tried; (3) any record the final program leaves incorrect is
  * added to the Step total as the paper's punishment term.
  */
object ClxSim {

  final case class Outcome(
      selections: Int,
      repairs: Int,
      failures: Int,
      perfect: Boolean,
      targets: Vector[Pattern],
      program: UniFi.Program,
      noisePatterns: Int,
  ) {
    def steps: Int = selections + repairs + failures
  }

  /** Target-labeling heuristic.
    *
    * The user can only select among patterns actually present in the data
    * — in practice, the patterns of records that are *already* in the
    * desired form (the paper's corpus preprocessing guarantees at least
    * one such record per task; deriving targets from the expected outputs
    * instead would be oracle leakage and would hide the paper's
    * "McMillan"-style failures, where the desired form of some record
    * never occurs in the data).
    *
    * The user prefers one generalized pattern over several sibling leaf
    * patterns when the quantifier-generalized (strategy 1) merge is
    * unambiguous — i.e. matches no ill-formatted record. This reproduces
    * the paper's Table 3 target `['[', <U>+, '-', <D>+, ']']`. Otherwise
    * the leaf patterns (with constant discovery) are selected as-is.
    */
  def chooseTargets(data: Seq[(String, String)]): Vector[Pattern] = {
    val correctForm = data.collect { case (in, out) if in == out => in }
    require(correctForm.nonEmpty, "task must contain at least one record already in the target form")
    val profile = ClusterProfile.of(correctForm)
    val leavesCd = profile.clusters().keys.toVector.sortBy(_.render)
    if (leavesCd.size == 1) return leavesCd
    val leavesPlain = profile.leaves.keys.toVector.sortBy(_.render)
    val g1 = leavesPlain.map(p => Hierarchy.getParent(p, Hierarchy.strategy1)).distinct
    val ill = data.collect { case (in, out) if in != out => in }
    if (g1.size < leavesPlain.size && !ill.exists(s => g1.exists(_.matches(s)))) g1
    else leavesCd
  }

  /** Run the full simulated interaction over (input, expected) pairs.
    *
    * `k` is the length of the ranked suggestion list per source pattern
    * (§6.3 "we also list the other k transformation plans"). The user
    * repairs with the plan whose *preview* (Fig. 8) shows the right
    * output, so a repair is one action regardless of the plan's position
    * in the list.
    */
  def run(data: Seq[(String, String)], k: Int = 40): Outcome = {
    val targets = chooseTargets(data)
    val root = Synthesizer.hierarchyOf(data.map(_._1))
    val result = Synthesizer.synthesize(root, targets, k)

    // Repair phase: each record routed once by the default program; per
    // branch with records, walk the ranked plans at the routed token bounds.
    val default = result.program(targets)
    val routed = data.map { case (in, out) => (default.branchOf(in), in, out) }.groupBy(_._1.branch)
    var repairs = 0
    val choices = scala.collection.mutable.Map.empty[Pattern, Int]
    result.solutions.zipWithIndex.foreach { case (sol, b) =>
      routed.get(b).foreach { recs =>
        val idx = sol.plans.indexWhere(p => recs.forall { case (d, in, out) => p.evalAt(in, d.bounds) == out })
        if (idx > 0) { repairs += 1; choices(sol.source) = idx }
        // idx == -1: no suggested plan fixes the branch; the user keeps
        // the default and the failing records are punished below.
      }
    }

    val program = result.programWith(targets, choices.toMap)
    val failures = data.count { case (in, out) => program.applyFlagged(in)._1 != out }
    Outcome(targets.size, repairs, failures, failures == 0, targets, program, result.noise.size)
  }
}
