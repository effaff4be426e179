package repro.bench

import java.nio.file.Paths
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CorpusCalls, Mdl}

/** Plan search on the corpus: the warm, sequential time of each task's
  * `Mdl.best` calls at k = 40, and their total.
  *
  * The calls are `CorpusCalls.all`: every hierarchy node of a task that is
  * not a target and validates against one, which includes every node
  * Algorithm 2 solves. One round makes every call once, on one thread.
  * One JVM's median moves by up to half between runs of the same code, so
  * the rounds run in `Jvms` fresh JVMs, child processes on this suite's
  * classpath. In each, after `Warmups` rounds, each task's time and the
  * total are the medians over `Rounds` timed rounds. The suite prints each
  * JVM's total, then per task and in total the median and quartiles across
  * JVMs. Run with `sbt "bench/testOnly *PlanSearchBench"`.
  */
class PlanSearchBench extends AnyFunSuite {

  import PlanSearchBench._

  private val Jvms = 5

  private def ms(ns: Long): String = f"${ns / 1e6}%.3f"

  private def spread(xs: Seq[Long]): String =
    f"${ms(quantile(xs, 0.5))}%8s (${ms(quantile(xs, 0.25))}–${ms(quantile(xs, 0.75))})"

  test("plan search: Mdl.best per corpus task at k = 40") {
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val classpath = System.getProperty("java.class.path")
    /** Per JVM: each task's median nanoseconds, then the total's. */
    val jvms = Vector.fill(Jvms) {
      val child = new ProcessBuilder(java, "-Xmx1g", "-Dfile.encoding=UTF-8", "-cp", classpath, "repro.bench.PlanSearchBench")
        .redirectError(ProcessBuilder.Redirect.INHERIT).start()
      val lines = scala.io.Source.fromInputStream(child.getInputStream, "UTF-8").getLines().toVector
      assert(child.waitFor() == 0, "child JVM failed")
      lines.map(_.toLong)
    }
    val calls = tasks
    assert(jvms.forall(_.size == calls.size + 1))

    println(s"\n== Plan search: Mdl.best at k = $K, warm, sequential (median of $Rounds rounds per JVM, $Jvms JVMs) ==")
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

  /** The `q`-quantile of `xs`, by nearest rank. */
  private def quantile(xs: Seq[Long], q: Double): Long = xs.sorted.apply(((xs.size - 1) * q).round.toInt)

  /** One JVM's measurement: prints each task's median nanoseconds per round,
    * one per line in `tasks`' order, then the median total.
    */
  def main(args: Array[String]): Unit = {
    val calls = tasks
    var kept = 0L
    /** Nanoseconds per task for one round. */
    def round(): Vector[Long] = calls.map { case (_, cs) =>
      val start = System.nanoTime()
      cs.foreach(c => kept += Mdl.best(c.dags, c.source, K).size)
      System.nanoTime() - start
    }
    (1 to Warmups).foreach(_ => round())
    val rounds = Vector.fill(Rounds)(round())
    require(kept > 0)
    calls.indices.foreach(i => println(quantile(rounds.map(_(i)), 0.5)))
    println(quantile(rounds.map(_.sum), 0.5))
  }
}
