package perfbench

import repro.benchmark.Benchmarks
import repro.core.{Tokenizer, UniFi}
import repro.sim.ClxSim

/** CLX Steps and perfect-program flag of one corpus task. */
final case class Expected(steps: Int, perfect: Boolean)

/** The pinned per-task outcome of the simulated CLX user on the 47 tasks. */
object Reference {
  def load(): Map[String, Expected] = {
    val in = getClass.getResourceAsStream("/corpus47_reference.tsv")
    require(in != null, "corpus47_reference.tsv is missing from the classpath")
    try scala.io.Source.fromInputStream(in, "UTF-8").getLines()
      .filterNot(l => l.isEmpty || l.startsWith("#"))
      .map { l =>
        val Array(id, steps, perfect) = l.split('\t')
        id -> Expected(steps.toInt, perfect.toBoolean)
      }.toMap
    finally in.close()
  }
}

/** `corpus47`: the simulated CLX user (`ClxSim.run`) over all 47 tasks of
  * the corpus, in one JVM without Spark. Per task a pass waits for the cluster
  * listing, the simulated session and the transformed, re-listed column.
  */
final class CorpusWorkload(reference: Map[String, Expected]) extends Workload {
  private var tasks: Vector[Benchmarks.Task] = Vector.empty
  private var lastOutcomes: Vector[ClxSim.Outcome] = Vector.empty
  private var lastTaskMs: Vector[Double] = Vector.empty
  private var tracedTasks: Vector[String] = Vector.empty

  /** The corpus is a constant of the JVM, built once on first use. */
  val setups = 1

  def setup(): Unit = tasks = Benchmarks.all

  def pass(tr: Tracer, tally: Tally): PassTimes = tr.span("pass") {
    var cluster, applyVerify = 0L
    val t0 = System.nanoTime()
    val perTask = tasks.map { task =>
      val before = tr.counters
      val inputs = task.data.map(_._1)
      val a = System.nanoTime()
      val root = tr.span("cluster")(Replay.hierarchyOf(inputs, tr))
      tr.add("hierarchy.nodes", root.preOrder.size)
      val b = System.nanoTime()
      val outcome = if (tr.enabled) Replay.simulate(task.data, tr) else ClxSim.run(task.data)
      val c = System.nanoTime()
      val (exact, outPatterns) = tr.span("apply_verify")(CorpusWorkload.applyAndList(outcome.program, task.data))
      val d = System.nanoTime()
      cluster += b - a
      applyVerify += d - c
      tally.check(s"${task.id}: Steps ${outcome.steps} and perfect=${outcome.perfect} as pinned, output as simulated") {
        reference.get(task.id).contains(Expected(outcome.steps, outcome.perfect)) &&
          exact == task.size - outcome.failures
      }
      if (tr.enabled) {
        val after = tr.counters
        def delta(k: String) = (after.getOrElse(k, 0.0) - before.getOrElse(k, 0.0)).toLong
        tracedTasks :+= Json.obj(
          "task" -> task.id, "ms" -> (d - a) / 1e6, "steps" -> outcome.steps,
          "output_patterns" -> outPatterns,
          "plans_enumerated" -> delta("synth.plans_enumerated"), "cap_hits" -> delta("synth.cap_hits"),
        )
      }
      (outcome, (d - a) / 1e6)
    }
    val t1 = System.nanoTime()

    val outcomes = perTask.map(_._1)
    tally.check("CLX is perfect on exactly 42 tasks")(outcomes.count(_.perfect) == 42)
    tally.check("CLX fails exactly the five known tasks") {
      tasks.zip(outcomes).collect { case (t, o) if !o.perfect => t.id }.toSet == CorpusWorkload.KnownFailures
    }
    lastOutcomes = outcomes
    if (!tr.enabled) lastTaskMs = perTask.map(_._2)
    PassTimes(cluster / 1e9, applyVerify / 1e9, (t1 - t0) / 1e9)
  }

  def layers(tr: Tracer, tally: Tally): Map[String, Double] = {
    val slowest = lastTaskMs.indices.maxBy(lastTaskMs)
    Console.err.println(f"[perfbench] slowest task: ${tasks(slowest).id} ${lastTaskMs(slowest)}%.1f ms")
    val groups = tasks.zip(lastOutcomes).map { case (t, o) => (t.data.map(_._1).toArray, o.program) }
    Workload.perRecord(groups) ++ Map(
      "sim.task_ms_p50" -> Stats.percentile(lastTaskMs, 50),
      "sim.task_ms_p90" -> Stats.percentile(lastTaskMs, 90),
      "sim.slowest_task_ms" -> lastTaskMs(slowest),
      "sim.slowest_task_index" -> slowest.toDouble,
    )
  }

  override def taskRecords: Seq[String] = tracedTasks

  def close(): Unit = ()
}

object CorpusWorkload {

  /** Apply `program` to every row, as the user's transformed column: the
    * number of rows that come out as expected, and the number of patterns
    * in the output listing (Fig. 2).
    */
  def applyAndList(program: UniFi.Program, data: Seq[(String, String)]): (Int, Int) = {
    val out = data.map { case (in, _) => program.applyFlagged(in)._1 }
    (out.zip(data).count { case (o, (_, want)) => o == want },
     out.groupBy(o => Tokenizer.tokenize(o).render).size)
  }

  /** The tasks CLX cannot solve perfectly (Table 7, Appendix E). */
  val KnownFailures = Set("ff-ex13-conditional", "ff-mixed-names", "bf-address", "prose-email", "prose-popl13")
}
