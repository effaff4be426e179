package repro.dist

import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.functions._
import repro.core._

/** Distributed pattern clustering (§4) over a DataFrame string column.
  *
  * Leaf clusters with constant discovery come from one `ClusterProfile`
  * fold per partition: executors key each string by its compact leaf key
  * and track count, least string and still-constant runs; the driver merges
  * the partitions' profiles and builds one pattern per cluster, then the
  * hierarchy (Algorithm 1). Only the per-pattern summaries reach the
  * driver, never raw data beyond one string per cluster. The cluster
  * listing (`clusterCounts`) and `withPattern` still key rows by the
  * rendered-pattern UDF.
  */
object PatternClusteringSpark {

  /** Rendered-pattern UDF column (leaf tokenization, no constants). */
  val patternUdf = udf((s: String) => if (s == null) null else Tokenizer.tokenize(s).render)

  /** Add a `pattern` column to `df` (leaf pattern of `col`). */
  def withPattern(df: DataFrame, col: String, out: String = "pattern"): DataFrame =
    df.withColumn(out, patternUdf(df(col)))

  /** Cluster listing shown for labeling (Fig. 3): pattern, count, sample. */
  def clusterCounts(df: DataFrame, col: String): DataFrame =
    withPattern(df, col)
      .groupBy("pattern")
      .agg(count(lit(1)) as "n", min(df(col)) as "sample")
      .orderBy(desc("n"), asc("pattern"))

  /** Leaf clusters with constant discovery, computed distributedly.
    *
    * Returns (refined pattern → string count) over the non-null strings.
    * Patterns that collapse to the same refined pattern are merged.
    */
  def leafClusters(df: DataFrame, col: String, minSupport: Int = 2): Map[Pattern, Long] =
    df.select(df(col)).as(Encoders.STRING).rdd
      .aggregate(ClusterProfile.empty)(_ add _, _ merge _)
      .clusters(minSupport)

  /** Full clustering phase: leaf clusters → pattern cluster hierarchy. */
  def hierarchy(df: DataFrame, col: String, minSupport: Int = 2): Hierarchy.PNode =
    Hierarchy.root(Hierarchy.build(leafClusters(df, col, minSupport).toSeq))
}
