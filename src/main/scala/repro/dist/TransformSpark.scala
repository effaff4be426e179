package repro.dist

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core._
import scala.jdk.CollectionConverters._

/** Distributed application of a synthesized UniFi program (§5–6) and the
  * pattern-level verification the CLX paradigm gives the user (Fig. 2).
  *
  * The program is captured in a UDF closure applied per record via
  * `withColumn`. The closure is deserialized once per task, so each task
  * compiles the branch regexes (the `Pattern.compiled` lazy val) and builds
  * the program's leaf-key dispatcher (`UniFi.Program`) afresh; within a task
  * most records cost a key scan, a hash lookup and the plan's appends.
  * Records matching no branch are flagged, not dropped (§6.1 "left unchanged
  * and flagged for additional review"). Verification folds the output column
  * into a `ClusterProfile` that tests its records against the targets (once
  * per cluster when the leaf pattern decides them), one scan per call.
  */
object TransformSpark {

  /** The output column that `transform` and `transformViaRegex` add. */
  val OutCol = "transformed"

  /** The column in which `transform` flags the records a branch matched. */
  val FlagCol = "matched"

  /** Apply `prog` to `df(col)`, adding the `OutCol` and `FlagCol` columns. */
  def transform(df: DataFrame, col: String, prog: UniFi.Program): DataFrame = {
    val f = udf((s: String) => if (s == null) null else prog.applyFlagged(s))
    df.withColumn("_clx", f(df(col)))
      .withColumn(OutCol, column("_clx._1"))
      .withColumn(FlagCol, column("_clx._2"))
      .drop("_clx")
  }

  /** Catalyst-native execution of the program's regexp-replace
    * *explanation* (§5): no UDF — the branches become nested
    * `regexp_replace` column expressions (Java `$n` flavor), guarded so
    * target-form values pass through untouched. This is exactly the
    * recipe a user would paste into a SQL engine after verifying the
    * Fig. 4 operations; `TransformSparkSpec` oracle-checks it against the
    * UniFi UDF path. Because every branch regex is anchored to a full
    * source pattern and branch outputs are target-formed, the sequential
    * chain coincides with first-match-wins on CLX-synthesized programs.
    */
  def transformViaRegex(df: DataFrame, col: String, prog: UniFi.Program): DataFrame = {
    val replaces = RegexExplain.explainProgram(prog)
    val chained = replaces.foldLeft(df(col)) { (expr, r) =>
      regexp_replace(expr, r.regex, r.javaReplacement)
    }
    val isTarget = prog.targets.map(t => df(col).rlike(t.groupedRegex))
      .reduceOption(_ || _).getOrElse(lit(false))
    df.withColumn(OutCol, when(isTarget, df(col)).otherwise(chained))
  }

  private val verifySchema = StructType(Seq(
    StructField("out_pattern", StringType),
    StructField("n", LongType, nullable = false),
    StructField("is_target", BooleanType, nullable = false)))

  /** Pattern-level verification of the transformed column: cluster the
    * output and report, per output leaf pattern, its count and whether every
    * record in it matches a selected target pattern — the mechanical form of
    * the user's Fig. 2 check. Null outputs form a `(null, #nulls, false)`
    * row; `n` descending, then pattern ascending (UTF-8 bytes, null first).
    */
  def verifyPatterns(transformed: DataFrame, outCol: String, targets: Seq[Pattern]): DataFrame =
    transformed.sparkSession.createDataFrame(
      PatternClusteringSpark.profile(transformed, outCol, targets).listing
        .map(r => Row(r.pattern, r.count, r.onTarget)).asJava, verifySchema)

  /** True iff every non-null output of a record that matched a branch
    * matches a target pattern — the success criterion of a pattern-level
    * verification pass. It profiles `when(flag, out)`: the output of a
    * flagged-off row becomes null, which the profile only counts. Output and
    * flag are read in one projection (a filter on the flag would be pushed
    * below the program's UDF and run the program twice per row).
    */
  def allVerified(transformed: DataFrame, outCol: String, flagCol: String,
                  targets: Seq[Pattern]): Boolean = {
    val flagged = transformed.select(when(transformed(flagCol), transformed(outCol)) as outCol)
    PatternClusteringSpark.profile(flagged, outCol, targets).allOnTarget
  }
}
