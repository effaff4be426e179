package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CorpusCalls, Mdl}
import WarmJvms.{ms, spread}

/** Plan search on the corpus: the warm, sequential time of each task's
  * `Mdl.best` calls at k = 40, and their total.
  *
  * The calls are `CorpusCalls.all`: every hierarchy node of a task that is
  * not a target and validates against one, which includes every node
  * Algorithm 2 solves. One round makes every call once, on one thread.
  * The rounds run in `WarmJvms.Count` fresh JVMs. In each, after `Warmups`
  * rounds, each task's time and the total are the medians over `Rounds`
  * timed rounds. The suite prints each JVM's total, then per task and in
  * total the median and quartiles across JVMs. Run with
  * `sbt "bench/testOnly *PlanSearchBench"`.
  */
class PlanSearchBench extends AnyFunSuite {

  import PlanSearchBench._

  test("plan search: Mdl.best per corpus task at k = 40") {
    /** Per JVM: each task's median nanoseconds, then the total's. */
    val jvms = WarmJvms.run(PlanSearchBench)
    val calls = tasks
    assert(jvms.forall(_.size == calls.size + 1))

    println(s"\n== Plan search: Mdl.best at k = $K, warm, sequential (median of $Rounds rounds per JVM, ${WarmJvms.Count} JVMs) ==")
    println(jvms.zipWithIndex.map { case (t, j) => s"JVM ${j + 1}: ${ms(t.last)} ms" }.mkString("total per JVM: ", ", ", ""))
    println(f"${"task"}%-28s ${"calls"}%5s ${"ms median (quartiles) across JVMs"}")
    calls.zipWithIndex.foreach { case ((task, cs), i) =>
      println(f"$task%-28s ${cs.size}%5d ${spread(jvms.map(_(i)))}")
    }
    println(f"${"total"}%-28s ${CorpusCalls.all.size}%5d ${spread(jvms.map(_.last))}")
  }
}

object PlanSearchBench {

  private val K = 40
  private val Warmups = 30
  private val Rounds = 31

  /** The corpus calls, grouped by task in corpus order. */
  private def tasks: Vector[(String, Vector[CorpusCalls.Call])] =
    CorpusCalls.all.map(_.task).distinct.map(t => t -> CorpusCalls.all.filter(_.task == t))

  /** One JVM's measurement: prints each task's median nanoseconds per round,
    * one per line in `tasks`' order, then the median total.
    */
  def main(args: Array[String]): Unit = {
    val calls = tasks
    var kept = 0L
    WarmJvms.medians(Warmups, Rounds) { () =>
      val perTask = calls.map { case (_, cs) => WarmJvms.time(cs.foreach(c => kept += Mdl.best(c.dags, c.source, K).size)) }
      perTask :+ perTask.sum
    }.foreach(println)
    require(kept > 0)
  }
}
