package repro.jobs

import repro.benchmark.Benchmarks
import repro.sim.{ClxSim, FlashFillSim, RegexReplaceSim}

/** Driver-side smoke run over a few benchmark tasks (no Spark needed):
  * prints targets, programs, and Step accounting — useful while iterating
  * on the synthesis algorithms. `runMain repro.jobs.SmokeJob [taskId...]`.
  */
object SmokeJob {
  def main(args: Array[String]): Unit = {
    val ids = if (args.nonEmpty) args.toSet
              else Set("bf-ex3-cpt", "ff-ex9-names", "sygus-phone-10-long", "sygus-firstname-long")
    Benchmarks.all.filter(t => ids.contains(t.id)).foreach { t =>
      println(s"==== ${t.id} (${t.size} rows) ====")
      val clx = ClxSim.run(t.data)
      println(s"  targets   : ${clx.targets.map(_.render).mkString(" | ")}")
      println(s"  program   :\n${clx.program.render.linesIterator.map("    " + _).mkString("\n")}")
      println(s"  CLX steps : sel=${clx.selections} rep=${clx.repairs} fail=${clx.failures} -> ${clx.steps} perfect=${clx.perfect}")
      t.data.filter { case (in, out) => clx.program.applyFlagged(in)._1 != out }.take(6)
        .foreach { case (in, out) =>
          println(s"  FAIL: '$in' -> '${clx.program.applyFlagged(in)._1}' want '$out'")
        }
      val ff = FlashFillSim.run(t.data)
      println(s"  FF  steps : ex=${ff.examples} fail=${ff.failures} -> ${ff.steps} perfect=${ff.perfect}")
      val rr = RegexReplaceSim.run(t.data)
      println(s"  RR  steps : ops=${rr.ops} fail=${rr.failures} -> ${rr.steps} perfect=${rr.perfect}")
    }
  }
}
