package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks
import repro.sim.{ClxSim, RegexReplaceSim}
import WarmJvms.{ms, spread}

/** The simulated users on the corpus: the warm time of `ClxSim.run` and of
  * `RegexReplaceSim.run` on each task, and their totals.
  *
  * One round runs every task through `ClxSim.run`, then every task through
  * `RegexReplaceSim.run`, one task at a time (`ClxSim.run`'s synthesis forks
  * into the common fork/join pool). The rounds run in `WarmJvms.Count` fresh
  * JVMs. In each, after `Warmups` rounds, each time and total is the median
  * over `Rounds` timed rounds. The suite prints each JVM's totals, then per
  * task and in total the median and quartiles across JVMs. Run with
  * `sbt "bench/testOnly *SimBench"`.
  */
class SimBench extends AnyFunSuite with AsciiMessages {

  import SimBench._

  test("simulated users: ClxSim.run and RegexReplaceSim.run per corpus task") {
    /** Per JVM: each task's CLX median nanoseconds, then each task's
      * RegexReplace, then the two totals.
      */
    val jvms = WarmJvms.run(SimBench)
    val n = Benchmarks.all.size
    assert(jvms.forall(_.size == 2 * n + 2))

    println(s"\n== Simulated users, warm (median of $Rounds rounds per JVM, ${WarmJvms.Count} JVMs) ==")
    println(jvms.zipWithIndex.map { case (t, j) => s"JVM ${j + 1}: ${ms(t(2 * n))} / ${ms(t(2 * n + 1))} ms" }
      .mkString("CLX / RegexReplace total per JVM: ", ", ", ""))
    println(f"${"task"}%-28s ${"rows"}%5s ${"ClxSim.run ms (quartiles)"}%-28s ${"RegexReplaceSim.run ms (quartiles)"}")
    Benchmarks.all.zipWithIndex.foreach { case (t, i) =>
      println(f"${t.id}%-28s ${t.size}%5d ${spread(jvms.map(_(i)))}%-28s ${spread(jvms.map(_(n + i)))}")
    }
    println(f"${"total"}%-28s ${Benchmarks.all.map(_.size).sum}%5d ${spread(jvms.map(_(2 * n)))}%-28s ${spread(jvms.map(_(2 * n + 1)))}")
  }
}

object SimBench {

  private val Warmups = 30
  private val Rounds = 31

  /** One JVM's measurement: prints each task's median `ClxSim.run`
    * nanoseconds, one per line in corpus order, then each task's
    * `RegexReplaceSim.run`, then the median totals of the two.
    */
  def main(args: Array[String]): Unit = {
    var steps = 0L
    WarmJvms.medians(Warmups, Rounds) { () =>
      val clx = Benchmarks.all.map(t => WarmJvms.time(steps += ClxSim.run(t.data).steps))
      val rr = Benchmarks.all.map(t => WarmJvms.time(steps += RegexReplaceSim.run(t.data).steps))
      clx ++ rr :+ clx.sum :+ rr.sum
    }.foreach(println)
    require(steps > 0)
  }
}
