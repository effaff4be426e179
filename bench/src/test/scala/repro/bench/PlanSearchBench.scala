package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CorpusCalls, Mdl}

/** Plan search on the corpus: the warm, sequential time of each task's
  * `Mdl.best` calls at k = 40, and their total.
  *
  * The calls are `CorpusCalls.all`: every hierarchy node of a task that is
  * not a target and validates against one, which includes every node
  * Algorithm 2 solves. One round makes every call once, on one thread.
  * After `Warmups` rounds, each task's time and the total are the medians
  * over `Rounds` timed rounds. Run with `sbt "bench/testOnly *PlanSearchBench"`.
  */
class PlanSearchBench extends AnyFunSuite {

  private val K = 40
  private val Warmups = 30
  private val Rounds = 31

  private def median(xs: Seq[Long]): Long = xs.sorted.apply(xs.size / 2)

  test("plan search: Mdl.best per corpus task at k = 40") {
    val tasks = CorpusCalls.all.map(_.task).distinct
    val calls = tasks.map(t => t -> CorpusCalls.all.filter(_.task == t))
    var kept = 0L
    /** Nanoseconds per task for one round. */
    def round(): Vector[Long] = calls.map { case (_, cs) =>
      val start = System.nanoTime()
      cs.foreach(c => kept += Mdl.best(c.dags, c.source, K).size)
      System.nanoTime() - start
    }
    (1 to Warmups).foreach(_ => round())
    val rounds = Vector.fill(Rounds)(round())

    println(s"\n== Plan search: Mdl.best at k = $K, warm, sequential (median of $Rounds rounds) ==")
    println(f"${"task"}%-28s ${"calls"}%5s ${"ms"}%8s")
    calls.zipWithIndex.foreach { case ((task, cs), i) =>
      println(f"$task%-28s ${cs.size}%5d ${median(rounds.map(_(i))) / 1e6}%8.3f")
    }
    println(f"${"total"}%-28s ${CorpusCalls.all.size}%5d ${median(rounds.map(_.sum)) / 1e6}%8.3f")
    assert(kept > 0)
  }
}
