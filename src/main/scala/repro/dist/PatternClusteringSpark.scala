package repro.dist

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.core._
import scala.jdk.CollectionConverters._

/** Distributed pattern clustering (§4) over a DataFrame string column.
  *
  * Every result comes from one `ClusterProfile` fold per partition:
  * executors key each string by its compact leaf key and track count,
  * least string and still-constant runs; the driver merges the partitions'
  * profiles and builds or renders one pattern per cluster. That yields the
  * leaf clusters with constant discovery, then the hierarchy (Algorithm 1),
  * and the cluster listing (`clusterCounts`). Only the per-pattern summaries
  * reach the driver, never raw data beyond one string per cluster.
  */
object PatternClusteringSpark {

  /** Profile of `df(col)`, recording per cluster whether every string
    * matches one of `targets`. One scan, folded per partition and merged on
    * the driver; the rows are read as Spark's internal rows, which plans no
    * second query.
    */
  private[dist] def profile(df: DataFrame, col: String, targets: Seq[Pattern] = Nil): ClusterProfile =
    df.select(df(col)).queryExecution.toRdd
      .aggregate(ClusterProfile.against(targets))(
        (profile, row) => profile.add(if (row.isNullAt(0)) null else row.getUTF8String(0).toString),
        _ merge _)

  private val countsSchema = StructType(Seq(
    StructField("pattern", StringType),
    StructField("n", LongType, nullable = false),
    StructField("sample", StringType)))

  /** Cluster listing shown for labeling (Fig. 3): leaf pattern, count and
    * least string (Spark's `min`), with a `(null, #nulls, null)` row for null
    * cells; `n` descending, then pattern ascending (UTF-8 bytes, null first).
    */
  def clusterCounts(df: DataFrame, col: String): DataFrame =
    df.sparkSession.createDataFrame(
      profile(df, col).listing.map(r => Row(r.pattern, r.count, r.sample)).asJava, countsSchema)

  /** Leaf clusters with constant discovery, computed distributedly.
    *
    * Returns (refined pattern → string count) over the non-null strings.
    * Patterns that collapse to the same refined pattern are merged.
    */
  def leafClusters(df: DataFrame, col: String): Map[Pattern, Long] =
    profile(df, col).clusters()

  /** Full clustering phase: leaf clusters → pattern cluster hierarchy. */
  def hierarchy(df: DataFrame, col: String): Hierarchy.PNode = profile(df, col).hierarchy()
}
