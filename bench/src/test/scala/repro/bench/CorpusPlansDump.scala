package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks
import repro.core.{CorpusCalls, Mdl}
import repro.sim.{ClxSim, FlashFillSim, RegexReplaceSim}

/** The plans the corpus gets, as one text file: `target/corpus-plans.tsv`
  * under the bench project. It holds the top-40 `Mdl.best` renders of every
  * corpus call (`CorpusCalls.all`), then each task's `ClxSim.run` targets,
  * program and Steps, its `FlashFillSim.run` examples, failures and Steps, and
  * its `RegexReplaceSim.run` ops, failures, Steps and recipe. Two checkouts
  * give the same plans iff their files are equal, so "no ranked list moved"
  * is one `diff`. Run with
  * `sbt "bench/testOnly *CorpusPlansDump"`.
  */
class CorpusPlansDump extends AnyFunSuite with AsciiMessages {

  private val K = ClxSim.Suggestions

  test("dump the corpus calls' top-40 plans and each task's program, recipe and Steps") {
    val lines = Vector.newBuilder[String]
    CorpusCalls.all.zipWithIndex.foreach { case (c, i) =>
      Mdl.best(c.dags, c.source, K).zipWithIndex.foreach { case (plan, r) =>
        lines += s"call\t$i\t${c.task}\t${c.source.render}\t$r\t${plan.render}"
      }
    }
    Benchmarks.all.foreach { task =>
      val o = ClxSim.run(task.data)
      lines += s"steps\t${task.id}\t${o.selections}\t${o.repairs}\t${o.failures}\t${o.steps}"
      lines += s"targets\t${task.id}\t${o.targets.map(_.render).mkString("\t")}"
      o.program.branches.foreach(b => lines += s"branch\t${task.id}\t${b.pattern.render}\t${b.plan.render}")
      val ff = FlashFillSim.run(task.data)
      lines += s"ff-steps\t${task.id}\t${ff.examples}\t${ff.failures}\t${ff.steps}"
      val rr = RegexReplaceSim.run(task.data)
      lines += s"rr-steps\t${task.id}\t${rr.ops.size}\t${rr.failures}\t${rr.steps}"
      rr.ops.foreach(op => lines += s"rr-op\t${task.id}\t${op.pattern.render}\t${op.plan.render}")
    }
    val out = Paths.get("target", "corpus-plans.tsv").toAbsolutePath
    Files.createDirectories(out.getParent)
    val all = lines.result()
    Files.write(out, all.mkString("", "\n", "\n").getBytes(UTF_8))
    println(s"\n== Corpus plans: ${all.size} lines written to $out ==")
    assert(all.nonEmpty)
  }
}
