package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData

/** Workload inputs, generated from the run's seed. */
object Inputs {

  /** Share of rows replaced by noise. */
  val NoiseShare = 0.1

  /** The messy phone column (`raw`, `expected`, `noise`) with a seeded share
    * of rows replaced by digit-free noise: 6–14 characters of a SHA-256
    * digest with its digits mapped onto letters, `.` and `-`. Such strings
    * spread over thousands of leaf patterns, none of which can be turned
    * into a phone number, so every noise row must come out unchanged and
    * flagged; `expected` is the noise string itself.
    */
  def longTailPhones(spark: SparkSession, rows: Long, seed: Long): DataFrame = {
    val phones = SynthData.messyPhones(spark, rows, nFormats = 6, seed = seed)
    // Draw each random column once: a rand() referenced twice is two draws.
    val drawn = phones.select(col("raw"), col("expected"),
                              rand(seed + 101) as "u", rand(seed + 102) as "v")
    val len = (lit(6) + floor(col("v") * 9)).cast("int")
    val digest = sha2(concat_ws("|", col("raw"), col("v").cast("string")), 256)
    val junk = translate(digest.substr(lit(1), len), "0123456789", "GHIJ.KLM-N")
    val isNoise = col("u") < NoiseShare
    drawn.select(
      when(isNoise, junk).otherwise(col("raw")) as "raw",
      when(isNoise, junk).otherwise(col("expected")) as "expected",
      isNoise as "noise",
    )
  }
}
