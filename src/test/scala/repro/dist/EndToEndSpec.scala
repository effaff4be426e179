package repro.dist

import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core._
import repro.sim.ClxSim
import TransformSpark.{FlagCol, OutCol}

/** Full CLX pipeline over Spark (`Clx.run`): cluster → label → synthesize →
  * transform → pattern-level verify, on the messy phone column (the §7.2
  * workload).
  */
class EndToEndSpec extends SparkSpec {

  /** One `Clx.run` session labeling the listed format-0 sample; the output
    * must verify, and the session's output listing must give
    * `verifyPatterns`' rows. Returns the rows exactly correct and the rows matched.
    */
  private def runPipeline(rows: Long, nFormats: Int): (Long, Long) = {
    val data = SynthData.messyPhones(spark, rows, nFormats).cache()
    val session = Clx.run(data, "raw", SynthData.isTargetPhone)
    assert(session.verified)
    assert(session.outputListing.map(r => (r.pattern, r.count, r.onTarget)) ==
      TransformSpark.verifyPatterns(session.output, OutCol, session.targets).collect().toSeq
        .map(r => (r.getString(0), r.getLong(1), r.getBoolean(2))))
    val out = session.output.cache()
    val correct = out.filter(col(OutCol) === col("expected")).count()
    val matched = out.filter(col(FlagCol)).count()
    data.unpersist(); out.unpersist()
    (correct, matched)
  }

  test("end-to-end on 2 formats (the paper's 10(2) case, scaled)") {
    val (correct, matched) = runPipeline(300, 2)
    assert(correct == 300 && matched == 300)
  }

  test("end-to-end on 4 formats (the 100(4) case, scaled)") {
    val (correct, matched) = runPipeline(1000, 4)
    assert(correct == 1000 && matched == 1000)
  }

  test("end-to-end on 6 formats (the 300(6) case, scaled)") {
    val (correct, matched) = runPipeline(3000, 6)
    assert(correct == 3000 && matched == 3000)
  }

  test("pattern count stays constant as rows grow (the verification-effort claim)") {
    val small = PatternClusteringSpark.clusterCounts(
      SynthData.messyPhones(spark, 500, 6), "raw").count()
    val large = PatternClusteringSpark.clusterCounts(
      SynthData.messyPhones(spark, 15000, 6), "raw").count()
    assert(small == large) // user verifies patterns, not rows
  }

  test("Catalyst-native regexp_replace pipeline matches ground truth at scale") {
    val data = SynthData.messyPhones(spark, 2000, 6).cache()
    val prog = Clx.run(data, "raw", SynthData.isTargetPhone).program
    val out = TransformSpark.transformViaRegex(data, "raw", prog)
    assert(out.filter(col(OutCol) === col("expected")).count() == 2000)
    data.unpersist()
  }

  test("Clx.run labels exactly the format-0 leaf as its target") {
    val session = Clx.run(SynthData.messyPhones(spark, 3000, 6), "raw", SynthData.isTargetPhone)
    val format0 = Tokenizer.tokenize("(734) 645-8397")
    assert(session.hierarchy.leaves.map(_.pattern).contains(format0))
    assert(session.targets == Vector(format0))
  }

  test("driver-side sim agrees with the Spark pipeline on correctness") {
    val local = SynthData.messyPhones(spark, 400, 6).collect()
      .map(r => (r.getString(0), r.getString(1))).toVector
    val outcome = ClxSim.run(local)
    assert(outcome.perfect, s"failures=${outcome.failures}")
    assert(outcome.selections == 1)
  }
}
