package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core._

/** Distributed clustering (§4) over DataFrames: withColumn tokenization
  * UDF, groupBy pattern counts, the per-partition cluster profile with
  * constant discovery, hierarchy.
  */
class PatternClusteringSparkSpec extends SparkSpec {

  import org.apache.spark.sql.DataFrame
  private def df(strings: Seq[String]): DataFrame = {
    import spark.implicits._
    strings.toDF("s")
  }

  test("withPattern adds the rendered leaf pattern per record") {
    val out = PatternClusteringSpark.withPattern(df(Seq("Bob123", "x-y")), "s").collect()
    val m = out.map(r => r.getString(0) -> r.getString(1)).toMap
    assert(m("Bob123") == Tokenizer.tokenize("Bob123").render)
    assert(m("x-y") == Tokenizer.tokenize("x-y").render)
  }

  test("clusterCounts groups identical patterns") {
    val counts = PatternClusteringSpark.clusterCounts(
      df(Seq("734-422-8073", "734-236-3466", "(734) 645-8397")), "s").collect()
    assert(counts.length == 2)
    assert(counts.head.getLong(1) == 2) // ordered by count desc
  }

  test("clusterCounts agrees with the DuckDB oracle") {
    val data = df(Seq("1-2", "3-4", "5.6", "ab", "cd", "ef"))
    val withPat = PatternClusteringSpark.withPattern(data, "s")
    val sparkCounts = withPat.groupBy("pattern").agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT pattern, count(*) AS n FROM pats GROUP BY pattern",
      "pats" -> withPat,
    )
  }

  test("leafClusters runs constant discovery distributedly") {
    val clusters = PatternClusteringSpark.leafClusters(
      df(Seq("CPT115", "CPT204", "CPT987")), "s")
    assert(clusters.keySet == Set(Pattern.of(Token.lit("CPT"), Token(TokType.D, 3))))
    assert(clusters.values.sum == 3)
  }

  test("leafClusters matches the driver-side implementation") {
    val strings = Seq("Dr. Eran", "Dr. Kath", "12-34", "56-78", "(1) 2")
    val viaSpark = PatternClusteringSpark.leafClusters(df(strings), "s")
    val viaLocal = Synthesizer.leafClusters(strings)
    assert(viaSpark == viaLocal)
  }

  test("leafClusters equals the driver path at 1 and 7 partitions") {
    val rnd = new scala.util.Random(7)
    def digits(n: Int) = Seq.fill(n)("127"(rnd.nextInt(3))).mkString
    val strings = Seq.fill(400)(rnd.nextInt(4) match {
      case 0 => s"${digits(3)}-${digits(3)}-${digits(4)}"
      case 1 => Seq("CPT", "MRI")(rnd.nextInt(2)) + digits(3)
      case 2 => Seq("Dr.", "Mr.")(rnd.nextInt(2)) + " " + Seq("Eran", "Kath")(rnd.nextInt(2))
      case _ => Seq.fill(rnd.nextInt(5))("aB7-\u0000é"(rnd.nextInt(6))).mkString
    })
    val viaLocal = Synthesizer.leafClusters(strings)
    Seq(1, 7).foreach { n =>
      assert(PatternClusteringSpark.leafClusters(df(strings).repartition(n), "s") == viaLocal, s"$n partitions")
    }
  }

  test("nulls are skipped by leafClusters and hierarchy") {
    import spark.implicits._
    val cells = Seq(Some("CPT115"), None, Some("CPT204"), None, Some("N/A"), Some("CPT987"))
    val data = cells.toDF("s").repartition(3)
    val present = cells.flatten
    val clusters = PatternClusteringSpark.leafClusters(data, "s")
    assert(clusters == Synthesizer.leafClusters(present))
    assert(clusters.values.sum == present.size)
    val root = PatternClusteringSpark.hierarchy(data, "s")
    assert(root.count == present.size)
    assert(root.leaves.map(_.pattern).toSet == Synthesizer.hierarchyOf(present).leaves.map(_.pattern).toSet)
  }

  test("hierarchy from a DataFrame equals the local hierarchy") {
    val strings = Seq("734-422-8073", "734.236.3466", "7344258397", "N/A")
    val viaSpark = PatternClusteringSpark.hierarchy(df(strings), "s")
    val viaLocal = Synthesizer.hierarchyOf(strings)
    assert(viaSpark.leaves.map(_.pattern).toSet == viaLocal.leaves.map(_.pattern).toSet)
    assert(viaSpark.count == viaLocal.count)
  }

  test("null values are ignored by the pattern UDF") {
    import spark.implicits._
    val data = Seq(Some("ab"), None, Some("cd")).toDF("s")
    val out = PatternClusteringSpark.withPattern(data, "s")
      .filter(col("pattern").isNotNull).count()
    assert(out == 2)
  }

  test("clustering scales over generated messy phones (SF unit-test size)") {
    val phones = SynthData.messyPhones(spark, rows = 2000, nFormats = 6)
    val counts = PatternClusteringSpark.clusterCounts(phones, "raw").collect()
    // 6 formats → exactly 6 leaf patterns, counts summing to 2000
    assert(counts.length == 6)
    assert(counts.map(_.getLong(1)).sum == 2000)
  }

  test("messyPhones is deterministic in (rows, seed)") {
    val a = SynthData.messyPhones(spark, 100, 4, seed = 9).collect().map(_.toString)
    val b = SynthData.messyPhones(spark, 100, 4, seed = 9).collect().map(_.toString)
    assert(a.sameElements(b))
  }

  test("messyPhones expected column is the normalized form of raw") {
    val rows = SynthData.messyPhones(spark, 500, 6).collect()
    val target = Tokenizer.tokenize("(123) 456-7890")
    rows.foreach { r =>
      assert(target.matches(r.getString(1)), s"expected ${r.getString(1)}")
    }
  }
}
