package repro.dist

import org.apache.spark.sql.DataFrame
import repro.core._
import Hierarchy.PNode

/** One CLX session over a Spark string column (§3.2): cluster the column and
  * list its patterns (Fig. 3), label the targets from that listing,
  * synthesize the program (Algorithm 2), apply it and verify the output
  * patterns (Fig. 2). Every Spark entry point runs this sequence through
  * `run`.
  */
object Clx {

  /** The clustering phase: the cluster listing (the rows of
    * `PatternClusteringSpark.clusterCounts`, in its order) and the pattern
    * cluster hierarchy.
    */
  final case class Clustering(listing: Seq[ClusterProfile.Listed], hierarchy: PNode)

  /** Wall-times in seconds: clustering and labeling, synthesis, and the
    * pattern-level verification (two scans, each applying the program).
    */
  final case class Times(cluster: Double, synth: Double, verify: Double)

  /** What a session shows the user. `output` adds the `TransformSpark.OutCol`
    * and `FlagCol` columns to the input (lazily, uncached); `verified` is
    * `TransformSpark.allVerified` and `outputListing` the output column's
    * listing, whose `(pattern, count, onTarget)` are the rows of
    * `TransformSpark.verifyPatterns`.
    */
  final case class Session(listing: Seq[ClusterProfile.Listed], hierarchy: PNode, targets: Vector[Pattern],
                           program: UniFi.Program, output: DataFrame, verified: Boolean,
                           outputListing: Seq[ClusterProfile.Listed], times: Times)

  /** Listing and hierarchy of `df(col)` from one scan. */
  def cluster(df: DataFrame, col: String): Clustering = {
    val profile = PatternClusteringSpark.profile(df, col)
    Clustering(profile.listing, profile.hierarchy())
  }

  /** A session in which the user accepts the listed samples for which
    * `label` holds. The targets are the hierarchy leaves that match an
    * accepted sample.
    */
  def run(df: DataFrame, col: String, label: String => Boolean): Session = {
    val t0 = System.nanoTime()
    val Clustering(listing, hierarchy) = cluster(df, col)
    val accepted = listing.flatMap(r => Option(r.sample)).filter(label)
    val targets = hierarchy.leaves.map(_.pattern).filter(p => accepted.exists(p.matches))
    val t1 = System.nanoTime()
    val program = Synthesizer.synthesize(hierarchy, targets).program(targets)
    val t2 = System.nanoTime()
    val output = TransformSpark.transform(df, col, program)
    val verified = TransformSpark.allVerified(output, TransformSpark.OutCol, TransformSpark.FlagCol, targets)
    val outputListing = PatternClusteringSpark.profile(output, TransformSpark.OutCol, targets).listing
    val t3 = System.nanoTime()
    Session(listing, hierarchy, targets, program, output, verified, outputListing,
      Times((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9))
  }
}
