package repro.bench

import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthData}
import repro.core.Synthesizer
import repro.dist.{PatternClusteringSpark, TransformSpark}

/** Machine-side analog of the §7.2 verification-effort study (Fig. 11/12).
  *
  * The paper's claim: CLX verification cost scales with the number of
  * *patterns*, not records — when the data grew 30×, CLX user verification
  * time grew 1.3× (vs 11.4× for FlashFill) because the user inspects a
  * constant-size pattern list. We verify the mechanism at benchmark scale:
  * the pattern lists the user must verify (the input clusters and the
  * output's verify listing) stay constant from 10k rows to 1M rows
  * (SF≈0.1-scale column), while the pipeline still transforms everything
  * correctly and the output passes `TransformSpark.allVerified`.
  * Wall-clock times are printed for the record (machine time is the
  * cluster's business, not the user's).
  */
class ScalingBench extends SparkSpec {
  import ScalingBench.Run

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def pipeline(rows: Long, nFormats: Int): Run = {
    val data = SynthData.messyPhones(spark, rows, nFormats).cache()
    data.count()

    val (hier, tCluster) = timed(PatternClusteringSpark.hierarchy(data, "raw"))
    val patterns = hier.leaves.size.toLong

    val sampleCorrect = data.filter(col("raw") === col("expected"))
      .select("raw").limit(100).collect().map(_.getString(0)).toSeq
    val targets = Synthesizer.leafClusters(sampleCorrect).keys.toVector
    val (result, tSynth) = timed(Synthesizer.synthesize(hier, targets))
    val prog = result.program(targets)

    val out = TransformSpark.transform(data, "raw", prog)
    val (nCorrect, tTransform) = timed(out.filter(col("transformed") === col("expected")).count())
    val ((verified, listed), tVerify) = timed {
      (TransformSpark.allVerified(out, "transformed", "matched", targets),
       TransformSpark.verifyPatterns(out, "transformed", targets).collect().length)
    }
    data.unpersist()
    Run(patterns, nCorrect, verified, listed, tCluster, tSynth, tTransform, tVerify)
  }

  test("Fig. 11/12 analog: pattern-level verification cost is row-count invariant") {
    println("\n== Scaling (Fig. 11/12 analog): messy phones, 6 formats ==")
    println(f"${"rows"}%10s ${"patterns"}%9s ${"correct"}%10s ${"listed"}%7s ${"cluster(s)"}%11s ${"synth(s)"}%9s ${"apply(s)"}%9s ${"verify(s)"}%10s")
    val sizes = Seq(10000L, 100000L, 1000000L)
    val out = sizes.map { n =>
      val r = pipeline(n, 6)
      println(f"$n%10d ${r.patterns}%9d ${r.correct}%10d ${r.listed}%7d ${r.cluster}%11.2f ${r.synth}%9.2f ${r.apply}%9.2f ${r.verify}%10.2f")
      (n, r)
    }
    // the user-facing verification surface (#patterns in, #patterns out) is constant
    assert(out.map(_._2.patterns).distinct.size == 1)
    assert(out.map(_._2.listed).distinct.size == 1)
    // and the transformation is exactly correct, and verifies, at every scale
    out.foreach { case (n, r) =>
      assert(r.correct == n, s"at $n rows")
      assert(r.verified, s"at $n rows")
    }
  }

  test("paper's 10(2)/100(4)/300(6) cases: patterns grow with heterogeneity, not size") {
    println("\n== §7.2 test cases ==")
    val cases = Seq((300L, 2), (1000L, 4), (3000L, 6))
    val patterns = cases.map { case (n, k) =>
      val r = pipeline(n, k)
      println(s"  rows=$n formats=$k -> patterns=${r.patterns} correct=${r.correct}/$n")
      assert(r.correct == n)
      r.patterns
    }
    assert(patterns == Seq(2L, 4L, 6L))
  }
}

object ScalingBench {

  /** One pipeline run: leaf patterns, correctly transformed rows, whether the
    * output verifies, the rows of its verify listing, and phase times.
    */
  private final case class Run(patterns: Long, correct: Long, verified: Boolean, listed: Int,
                               cluster: Double, synth: Double, apply: Double, verify: Double)
}
