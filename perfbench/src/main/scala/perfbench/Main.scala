package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.util.control.NonFatal

/** Runs one workload and prints its result as the last line of stdout.
  *
  * With `--trace 0` a run sets the workload up `setups` times, makes untimed
  * warm-up passes, then times passes until `--seconds` have passed and
  * reports the medians of the end-to-end metrics. With `--trace 1` it warms
  * up the same way, then makes an untraced, a traced and another untraced
  * pass, reports the per-layer metrics and writes the spans under
  * `--scratch`/traces.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean, scratch: Path)

  val usage = "usage: perfbench.Main --workload <longtail_100k|corpus47> " +
    "--seed <n> --seconds <s> --trace <0|1> --scratch <dir>"

  /** Passes run before timing starts, until this long has passed: pass
    * times keep falling for about three passes after the first, as the JIT
    * compiles Spark's and the program's hot paths.
    */
  val WarmUpSeconds = 18.0

  def parse(args: Seq[String]): Options = {
    require(args.size % 2 == 0, usage)
    val kv = args.grouped(2).map { case Seq(k, v) => k -> v }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k; $usage"))
    val trace = get("--trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1; $usage")
    val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--scratch")
    require(unknown.isEmpty, s"unknown options ${unknown.mkString(", ")}; $usage")
    Options(get("--workload"), get("--seed").toLong, get("--seconds").toDouble, trace == "1",
            Paths.get(get("--scratch")))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { println(run(parse(args.toSeq))); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Collect garbage, let the collector's notifications arrive, then start
    * a new peak.
    */
  private def freshHeap(): Unit = { System.gc(); Thread.sleep(100); Heap.resetPeaks() }

  def run(o: Options): String = {
    val tally = new Tally
    val w = Workload(o.workload, o.seed, o.scratch)
    try {
      val setupTimes = (1 to w.setups).map { _ => val t0 = System.nanoTime(); w.setup(); seconds(t0) }
      val off = new Tracer(enabled = false)
      // A pass that throws is one failed operation; the run goes on.
      def untracedPass(): Option[PassTimes] = tally.guard("pass")(w.pass(off, tally))
      val warmUp = System.nanoTime()
      val warmUps = Vector.newBuilder[Double]
      while ({
        val t = System.nanoTime()
        untracedPass()
        warmUps += seconds(t)
        seconds(warmUp) < WarmUpSeconds
      }) ()
      log(o.workload, "warm-up pass s", warmUps.result())
      if (!o.trace) {
        val passes = Vector.newBuilder[(PassTimes, Double)]
        val t0 = System.nanoTime()
        while ({
          freshHeap()
          untracedPass().foreach { p =>
            passes += ((p, Heap.peakMb))
            Console.err.println(f"[perfbench] pass total=${p.total}%.3f cluster=${p.cluster}%.3f " +
                                f"apply_verify=${p.applyVerify}%.3f heap=${Heap.peakMb}%.0f")
          }
          seconds(t0) < o.seconds
        }) ()
        val ps = passes.result()
        require(ps.nonEmpty, "every timed pass failed")
        val samples = Map(
          "setup_s" -> setupTimes,
          "total_s" -> ps.map(_._1.total),
          "peak_heap_mb" -> ps.map(_._2),
        )
        samples.foreach { case (k, xs) => log(o.workload, k, xs) }
        Metrics.resultLine(tally, Metrics.endToEnd, samples.view.mapValues(xs => Stats.median(xs)).toMap)
      } else {
        // The traced pass sits between two untraced ones, so that what the
        // JIT still gains from pass to pass does not count as overhead.
        freshHeap()
        val before = w.pass(off, tally)
        val heap = Heap.peakMb
        System.gc()
        val on = new Tracer(enabled = true)
        w.beforeTracedPass()
        val traced = w.pass(on, tally)
        val measured = w.layers(on, tally)
        System.gc()
        val after = w.pass(off, tally)
        val untraced = (before.total + after.total) / 2
        val timings = Map(
          "cluster_s" -> (before.cluster + after.cluster) / 2,
          "apply_verify_s" -> (before.applyVerify + after.applyVerify) / 2,
          "jvm.peak_heap_mb" -> heap,
          "trace.untraced_total_s" -> untraced,
          "trace.traced_total_s" -> traced.total,
          "trace.overhead_s" -> (traced.total - untraced),
        )
        writeTrace(o, on.spans, w.taskRecords)
        Metrics.resultLine(tally, Metrics.perLayer, Metrics.fromTrace(on.spans, on.counters, measured ++ timings))
      }
    } finally w.close()
  }

  private def log(workload: String, metric: String, xs: Seq[Double]): Unit = {
    val spread =
      if (xs.size < 2) ""
      else { val (q1, _, q3) = Stats.quartiles(xs); f" q1=$q1%.4f q3=$q3%.4f" }
    Console.err.println(f"[perfbench] $workload $metric n=${xs.size} median=${Stats.median(xs)}%.4f$spread")
  }

  private def writeTrace(o: Options, spans: Seq[Span], tasks: Seq[String]): Unit = {
    val dir = Files.createDirectories(o.scratch.resolve("traces"))
    val stem = s"${o.workload}-seed${o.seed}"
    Files.write(dir.resolve(s"$stem.spans.jsonl"), Trace.jsonLines(spans).getBytes(StandardCharsets.UTF_8))
    tasks.foreach(t => Console.err.println(s"[perfbench] task $t"))
    if (tasks.nonEmpty)
      Files.write(dir.resolve(s"$stem.tasks.jsonl"), tasks.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    Console.err.println(s"[perfbench] spans written to ${dir.resolve(stem)}.*")
  }
}
