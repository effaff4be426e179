package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.dist.Clx

/** spark-submit entrypoint for the clustering phase (§4): generates (or
  * reads) a messy string column and prints the pattern cluster listing the
  * CLX user labels from (Fig. 3).
  *
  * Usage: spark-submit --class repro.jobs.ClusterJob repro.jar [rows] [formats] [csvPath]
  * With csvPath, the first column of the headerless CSV is clustered
  * instead of generated data.
  */
object ClusterJob {
  def main(args: Array[String]): Unit = {
    val rows = args.headOption.map(_.toLong).getOrElse(100000L)
    val formats = args.lift(1).map(_.toInt).getOrElse(6)
    val spark = SparkSession.builder().appName("clx-cluster").getOrCreate()
    try {
      val df = args.lift(2) match {
        case Some(path) =>
          val csv = spark.read.csv(path)
          csv.select(csv(csv.columns.head) as "raw")
        case None => SynthData.messyPhones(spark, rows, formats).select("raw")
      }
      val Clx.Clustering(listing, hier) = Clx.cluster(df, "raw")
      println("== Pattern clusters (Fig. 3) ==")
      listing.foreach(r => println(f"${r.pattern}%-40s ${r.count}%10d   e.g. ${r.sample}"))
      println(s"\nhierarchy: ${hier.leaves.size} leaf patterns, ${hier.preOrder.size} nodes total")
    } finally spark.stop()
  }
}
