package repro.sim

import repro.benchmark.Benchmarks
import repro.benchmark.Benchmarks.Task

/** §7.4 user-effort comparison (Table 7) and expressivity counts.
  *
  * Runs the three simulated lazy users over the full 47-task corpus and
  * tabulates per-task Steps, win/tie/lose counts and perfect-program
  * counts. Deterministic; results feed `Table7Bench` and EXPERIMENTS.md.
  */
object Comparison {

  final case class TaskResult(
      task: Task,
      clx: ClxSim.Outcome,
      ff: FlashFillSim.Outcome,
      rr: RegexReplaceSim.Outcome,
  ) {
    def clxSteps: Int = clx.steps
    def ffSteps: Int = ff.steps
    def rrSteps: Int = rr.steps
  }

  final case class WinTieLose(wins: Int, ties: Int, loses: Int) {
    override def toString: String = s"$wins/$ties/$loses"
  }

  def runTask(t: Task): TaskResult =
    TaskResult(t, ClxSim.run(t.data), FlashFillSim.run(t.data), RegexReplaceSim.run(t.data))

  /** Fewer steps wins (paper's comparison semantics). */
  def compare(mine: Seq[Int], theirs: Seq[Int]): WinTieLose = {
    val pairs = mine.zip(theirs)
    WinTieLose(
      pairs.count { case (a, b) => a < b },
      pairs.count { case (a, b) => a == b },
      pairs.count { case (a, b) => a > b },
    )
  }

  final case class Summary(results: Vector[TaskResult]) {
    def vsFlashFill: WinTieLose = compare(results.map(_.clxSteps), results.map(_.ffSteps))
    def vsRegexReplace: WinTieLose = compare(results.map(_.clxSteps), results.map(_.rrSteps))
    def clxPerfect: Int = results.count(_.clx.perfect)
    def ffPerfect: Int = results.count(_.ff.perfect)
    def rrPerfect: Int = results.count(_.rr.perfect)
    def n: Int = results.size
  }

  /** The three simulated users over every task of `Benchmarks.all`. */
  def summary(): Summary = Summary(Benchmarks.all.map(runTask))
}
