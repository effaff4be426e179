package perfbench

import java.nio.file.Path

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Hierarchy, Synthesizer, UniFi}
import repro.dist.{PatternClusteringSpark, TransformSpark}

/** `longtail_100k`: a messy phone column with long-tail noise, taken through
  * cluster → label → synthesize → apply → verify on a local Spark session.
  */
final class LongTailWorkload(rows: Long, seed: Long, scratch: Path) extends Workload {
  /** Rows copied to the Spark driver for the per-record layer measurements. */
  private val sampleRows = 100000

  private var spark: SparkSession = _
  private var counters: SparkCounters = _
  private var data: DataFrame = _
  private var noiseRows = 0L

  // What the last pass produced, for `layers`.
  private var lastProgram: UniFi.Program = _
  private var lastSynthesis: Synthesizer.Result = _
  private var lastOutputPatterns = 0

  val setups = 3

  def setup(): Unit = {
    close()
    val t0 = System.nanoTime()
    val (s, c) = SparkHarness.start(scratch)
    Console.err.println(f"[perfbench] spark session up in ${(System.nanoTime() - t0) / 1e9}%.2f s")
    spark = s
    counters = c
    data = Inputs.longTailPhones(s, rows, seed).persist(StorageLevel.MEMORY_ONLY)
    noiseRows = data.filter(col("noise")).count()
  }

  def pass(tr: Tracer, tally: Tally): PassTimes = tr.span("pass") {
    val t0 = System.nanoTime()
    val (root, targets) = tr.span("cluster") {
      val listing = tr.span("dist.cluster_counts")(PatternClusteringSpark.clusterCounts(data, "raw").collect())
      val root =
        if (!tr.enabled) PatternClusteringSpark.hierarchy(data, "raw")
        else {
          val leaves = tr.span("dist.leaf_clusters")(PatternClusteringSpark.leafClusters(data, "raw"))
          tr.add("dist.leaf_patterns", leaves.size)
          tr.span("hierarchy.build")(Hierarchy.root(Hierarchy.build(leaves.toSeq)))
        }
      tr.add("hierarchy.nodes", root.preOrder.size)
      // The user labels the listed cluster that holds the desired form.
      val labeled = listing.map(_.getString(2)).filter(LongTailWorkload.TargetForm.matches)
      val targets = root.leaves.map(_.pattern).filter(p => labeled.exists(p.matches))
      (root, targets)
    }
    val t1 = System.nanoTime()
    tally.check("exactly one leaf cluster is in the target form")(targets.size == 1)

    val result =
      if (tr.enabled) Replay.synthesize(root, targets, 10, tr)
      else Synthesizer.synthesize(root, targets)
    val program = result.program(targets)

    val t2 = System.nanoTime()
    tr.span("apply_verify") {
      val out = TransformSpark.transform(data, "raw", program)
      val counts: Row = tr.span("dist.transform") {
        out.agg(
          count(lit(1)),
          sum(when(col("transformed") === col("expected"), 1L).otherwise(0L)),
          sum(when(col("matched"), 0L).otherwise(1L)),
          sum(when(col("noise") && !col("matched"), 1L).otherwise(0L)),
        ).head()
      }
      tally.check("every row equals its expected value") {
        counts.getLong(0) == rows && counts.getLong(1) == rows
      }
      tally.check("the flagged rows are exactly the noise rows") {
        counts.getLong(2) == noiseRows && counts.getLong(3) == noiseRows
      }
      val (verified, outListing) = tr.span("dist.verify") {
        (TransformSpark.allVerified(out, "transformed", "matched", targets),
         TransformSpark.verifyPatterns(out, "transformed", targets).collect())
      }
      tally.check("allVerified")(verified)
      val onTarget = outListing.filter(_.getBoolean(2)).map(_.getLong(1)).sum
      tally.check("the target output pattern holds exactly the phone rows")(onTarget == rows - noiseRows)
      lastOutputPatterns = outListing.length
    }
    val t3 = System.nanoTime()

    lastProgram = program
    if (!tr.enabled) lastSynthesis = result
    else tally.check("the traced synthesis equals Synthesizer.synthesize")(result == lastSynthesis)
    PassTimes((t1 - t0) / 1e9, (t3 - t2) / 1e9, (t3 - t0) / 1e9)
  }

  override def beforeTracedPass(): Unit = counters.reset()

  def layers(tr: Tracer, tally: Tally): Map[String, Double] = {
    SparkHarness.drain(spark)
    val sparkWork = Map(
      "spark.jobs" -> counters.jobs.toDouble,
      "spark.tasks" -> counters.tasks.toDouble,
      "spark.shuffle_write_mb" -> counters.shuffleWriteBytes / (1024.0 * 1024.0),
      "spark.executor_cpu_s" -> counters.executorCpuNs / 1e9,
      "spark.gc_s" -> counters.gcMs / 1e3,
    )
    val t0 = System.nanoTime()
    val exactViaRegex = TransformSpark.transformViaRegex(data, "raw", lastProgram)
      .filter(col("transformed") === col("expected")).count()
    val viaRegex = (System.nanoTime() - t0) / 1e9
    tally.check("the regex path also gets every row right")(exactViaRegex == rows)

    val sample = data.select("raw").limit(sampleRows).collect().map(_.getString(0))
    sparkWork ++ Workload.perRecord(Seq((sample, lastProgram))) ++ Map(
      "dist.transform_via_regex_s" -> viaRegex,
      "dist.output_patterns" -> lastOutputPatterns.toDouble,
    )
  }

  def close(): Unit = if (spark != null) {
    data.unpersist(blocking = true)
    spark.stop()
    spark = null
  }
}

object LongTailWorkload {
  /** The form the simulated user wants: `(ddd) ddd-dddd`. */
  val TargetForm = """\(\d{3}\) \d{3}-\d{4}""".r
}
