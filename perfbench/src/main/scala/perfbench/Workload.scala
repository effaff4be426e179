package perfbench

import repro.core.{Tokenizer, UniFi}

/** End-to-end times of one pass, in seconds. */
final case class PassTimes(cluster: Double, applyVerify: Double, total: Double)

/** One benchmark workload. A pass is one full user session: it times the
  * user-facing waits and checks its own output through the tally.
  */
trait Workload {
  /** How many times a run sets the workload up; the last set-up is used. */
  def setups: Int

  /** Build the inputs, and whatever runs them, from scratch. */
  def setup(): Unit

  def pass(tr: Tracer, tally: Tally): PassTimes

  /** Called before the traced pass, e.g. to reset counters. */
  def beforeTracedPass(): Unit = ()

  /** Measurements of single layers, taken after a traced pass. */
  def layers(tr: Tracer, tally: Tally): Map[String, Double]

  /** Per-task records for the trace file; empty when there are no tasks. */
  def taskRecords: Seq[String] = Nil

  def close(): Unit
}

object Workload {
  def apply(name: String, seed: Long, scratch: java.nio.file.Path): Workload = name match {
    case "longtail_100k" => new LongTailWorkload(100000, seed, scratch)
    case "corpus47"      => new CorpusWorkload(Reference.load())
    case other           => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  /** Single-threaded throughput, outside Spark, of the per-record layers over
    * groups of (strings, program that applies to them).
    */
  def perRecord(groups: Seq[(Array[String], UniFi.Program)]): Map[String, Double] = {
    val n = groups.map(_._1.length.toLong).sum
    def sweep(f: (String, UniFi.Program) => Long): () => Long = () => {
      var acc = 0L
      groups.foreach { case (strings, prog) =>
        var i = 0
        while (i < strings.length) { acc += f(strings(i), prog); i += 1 }
      }
      acc
    }
    val matched = sweep((s, p) => if (p.applyFlagged(s)._2) 1L else 0L)()
    Map(
      "tokenize.mrec_s" -> Throughput.mrecPerSec(n)(sweep((s, _) => Tokenizer.tokenize(s).size.toLong)),
      "render.mrec_s" -> Throughput.mrecPerSec(n)(sweep((s, _) => Tokenizer.tokenize(s).render.length.toLong)),
      "pattern_match.mrec_s" ->
        Throughput.mrecPerSec(n)(sweep((s, p) => if (p.targets.exists(_.matches(s))) 1L else 0L)),
      "unifi.apply_mrec_s" -> Throughput.mrecPerSec(n)(sweep((s, p) => p.applyFlagged(s)._1.length.toLong)),
      "unifi.matched" -> matched.toDouble,
    )
  }
}
