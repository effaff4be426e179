package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.RegexExplain
import repro.dist.{Clx, TransformSpark}

/** spark-submit entrypoint for the full CLX pipeline (§3.2): one `Clx.run`
  * session that labels the listed format-0 sample as the target, printing
  * the explanation (Fig. 4), the output pattern listing (Fig. 2) and the
  * ground-truth check.
  *
  * Usage: spark-submit --class repro.jobs.TransformJob repro.jar [rows] [formats]
  */
object TransformJob {
  def main(args: Array[String]): Unit = {
    val rows = args.headOption.map(_.toLong).getOrElse(100000L)
    val formats = args.lift(1).map(_.toInt).getOrElse(6)
    val spark = SparkSession.builder().appName("clx-transform").getOrCreate()
    try {
      val data = SynthData.messyPhones(spark, rows, formats).cache()
      val session = Clx.run(data, "raw", SynthData.isTargetPhone)
      println(s"label: target pattern(s) = ${session.targets.map(_.renderNatural).mkString(" | ")}")

      println("\n== Inferred transformation (Fig. 4) ==")
      RegexExplain.explainProgram(session.program).foreach(r => println("  " + r.natural))

      println("\n== Output pattern clusters (Fig. 2) ==")
      session.outputListing.foreach { r =>
        println(f"${r.pattern}%-40s ${r.count}%10d   target=${r.onTarget}")
      }
      println(s"verified: ${session.verified}")
      val nCorrect = session.output.filter(col(TransformSpark.OutCol) === col("expected")).count()
      println(s"\nground truth: $nCorrect/$rows records exactly correct")
    } finally spark.stop()
  }
}
