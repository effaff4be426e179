package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic input data, deterministic in its seed so the DuckDB oracle
  * sees identical input.
  */
object SynthData {

  /** Heterogeneous phone-number column for the CLX reproduction.
    *
    * Stands in for the "Times Square Food & Beverage Locations" phone
    * column (NYC OpenData) used by the paper's §7.2 study, which is not
    * available offline. `nFormats` (≤ 6) controls heterogeneity, matching
    * the paper's 10(2)/100(4)/300(6) test-case construction; format 0 is
    * the target form. Weights are skewed so rarer formats mimic the long
    * tail of real ad hoc data. Columns: `raw` and the ground-truth
    * normalization `expected` ("(ddd) ddd-dddd").
    */
  def messyPhones(spark: SparkSession, rows: Long, nFormats: Int = 6, seed: Long = 7): DataFrame = {
    require(nFormats >= 1 && nFormats <= 6, s"nFormats must be in [1,6], got $nFormats")
    // Materialize every random draw in a first projection: a rand() Column
    // referenced from several expressions is *copied* per use site, and
    // CASE WHEN short-circuiting desynchronizes the copies' per-row
    // sequences — raw and expected would disagree.
    val norm = (1 to nFormats).map(k => 1.0 / k).sum
    val drawn = spark.range(rows).select(
      (rand(seed)     * 700 + 200).cast(IntegerType)   as "a", // area code 200-899
      (rand(seed + 1) * 700 + 200).cast(IntegerType)   as "b",
      (rand(seed + 2) * 9000 + 1000).cast(IntegerType) as "c",
      (rand(seed + 3) * norm)                          as "u",
    )
    import drawn.{col => dc}
    val (a, b, c, u) = (dc("a"), dc("b"), dc("c"), dc("u"))
    // zipf-ish format weights 1/k over the first nFormats formats
    val cum = (1 to nFormats).scanLeft(0.0)((acc, k) => acc + 1.0 / k).tail
    val fmtIdx = cum.zipWithIndex.foldRight(lit(nFormats - 1)) { case ((bound, i), e) =>
      when(u < bound, lit(i)).otherwise(e)
    }
    val fmts = Seq(
      format_string("(%03d) %03d-%04d", a, b, c),
      format_string("(%03d)%03d-%04d", a, b, c),
      format_string("%03d-%03d-%04d", a, b, c),
      format_string("%03d.%03d.%04d", a, b, c),
      format_string("%03d %03d %04d", a, b, c),
      format_string("+1 %03d-%03d-%04d", a, b, c),
    )
    val raw = fmts.take(nFormats).zipWithIndex.foldRight(fmts.head) { case ((f, i), e) =>
      when(fmtIdx === i, f).otherwise(e)
    }
    drawn.select(
      raw                                        as "raw",
      format_string("(%03d) %03d-%04d", a, b, c) as "expected",
    )
  }
}
