package repro.dist

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core._

/** Distributed clustering (§4) over DataFrames: the per-partition cluster
  * profile behind the cluster listing, constant discovery and the hierarchy;
  * the listings against DuckDB and against Spark's own groupBy/orderBy.
  */
class PatternClusteringSparkSpec extends SparkSpec {

  /** The listings as Spark's groupBy/orderBy over a rendered-pattern UDF:
    * the reference the profile-built listings must equal.
    */
  private val renderUdf = udf((s: String) => if (s == null) null else Tokenizer.tokenize(s).render)

  private def referenceCounts(data: DataFrame): DataFrame =
    data.withColumn("pattern", renderUdf(col("s")))
      .groupBy("pattern")
      .agg(count(lit(1)) as "n", min(col("s")) as "sample")
      .orderBy(desc("n"), asc("pattern"))

  private def referenceVerify(data: DataFrame, targets: Seq[Pattern]): DataFrame = {
    val targetSet = targets.map(_.render).toSet
    val isTarget = udf((p: String) => targetSet.contains(p))
    data.withColumn("out_pattern", renderUdf(col("s")))
      .groupBy("out_pattern")
      .agg(count(lit(1)) as "n")
      .withColumn("is_target", isTarget(col("out_pattern")))
      .orderBy(desc("n"), asc("out_pattern"))
  }

  /** Cells from a few leaf templates, each repeated 1–3 times so that counts
    * tie, plus nulls; literals past ASCII (é, ～ and the surrogate pair 😀)
    * make UTF-8 byte order and `String.compareTo` disagree between patterns.
    */
  private def tiedCells(seed: Int): Seq[String] = {
    val rnd = new scala.util.Random(seed)
    def fill(template: String) = template.map {
      case '9' => "0123456789"(rnd.nextInt(10))
      case 'a' => "abcxyz"(rnd.nextInt(6))
      case 'A' => "ABCXYZ"(rnd.nextInt(6))
      case c   => c
    }
    val templates =
      Seq("999-9999", "99.99", "aa～9", "aa😀9", "Aé", "A～", "A😀", "a", "9", "", "-", "Aaa 99")
    val cells = templates.flatMap(t => Seq.fill(1 + rnd.nextInt(3))(fill(t))) ++
      Seq.fill(1 + rnd.nextInt(3))(null)
    rnd.shuffle(cells)
  }

  test("clusterCounts renders each record's leaf pattern") {
    val out = PatternClusteringSpark.clusterCounts(df(Seq("Bob123", "x-y")), "s").collect()
    val m = out.map(r => r.getString(2) -> r.getString(0)).toMap
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
    import spark.implicits._
    val cells = Seq("1-2", "3-4", "5.6", "ab", "cd", "ef", null, "Bé", "Aé", "x～1", "y😀2", "z～3",
      "w😀4", null, "～", "😀", "é")
    val pats = cells.map(s => (s, Option(s).map(Tokenizer.tokenize(_).render).orNull)).toDF("s", "pattern")
    val sql = "SELECT pattern, count(*) AS n, min(s) AS sample FROM pats GROUP BY pattern " +
      "ORDER BY n DESC, pattern ASC NULLS FIRST"
    val expected = Oracle.rows(sql, "pats" -> pats).map(_.toSeq.map(String.valueOf))
    Seq(1, 7).foreach { n =>
      val counts = PatternClusteringSpark.clusterCounts(cells.toDF("s").repartition(n), "s")
      Oracle.assertEquivalent(counts, sql, "pats" -> pats)
      assert(counts.collect().toSeq.map(_.toSeq.map(String.valueOf)) == expected, s"row order, $n partitions")
    }
  }

  test("the listings equal Spark's groupBy/orderBy at 1 and 7 partitions") {
    import spark.implicits._
    (1 to 5).foreach { seed =>
      val cells = tiedCells(seed)
      val targets = Seq(Tokenizer.tokenize("AB"), Tokenizer.tokenize("ab～1"), Tokenizer.tokenize("Aé"))
      Seq(1, 7).foreach { n =>
        val data = cells.toDF("s").repartition(n)
        Seq(
          PatternClusteringSpark.clusterCounts(data, "s") -> referenceCounts(data),
          TransformSpark.verifyPatterns(data, "s", targets) -> referenceVerify(data, targets),
        ).foreach { case (got, expected) =>
          assert(got.schema == expected.schema, s"seed $seed, $n partitions")
          assert(got.collect().toSeq == expected.collect().toSeq, s"seed $seed, $n partitions")
        }
      }
    }
  }

  test("Clx.cluster gives clusterCounts' rows and hierarchy's tree in one Spark job") {
    import spark.implicits._
    val sc = spark.sparkContext
    // The ids of the jobs run in `group`, once the status store has seen
    // every job started before: events reach it in order, so a marker job
    // run afterwards shows up only after them.
    def jobsOf(group: String): Seq[Int] = {
      sc.setJobGroup(s"$group-marker", "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      eventually(timeout(10.seconds))(assert(sc.statusTracker.getJobIdsForGroup(s"$group-marker").nonEmpty))
      sc.statusTracker.getJobIdsForGroup(group).toSeq
    }
    (1 to 5).foreach { seed =>
      // A local relation: a shuffle (`repartition`) would add a job of its own.
      val data = tiedCells(seed).toDF("s")
      val group = s"clx-cluster-$seed"
      sc.setJobGroup(group, "Clx.cluster")
      val clustering = try Clx.cluster(data, "s") finally sc.clearJobGroup()
      assert(jobsOf(group).size == 1, s"seed $seed")
      assert(clustering.listing.map(r => (r.pattern, r.count, r.sample)) ==
        PatternClusteringSpark.clusterCounts(data, "s").collect().toSeq
          .map(r => (r.getString(0), r.getLong(1), r.getString(2))), s"seed $seed")
      assert(clustering.hierarchy == PatternClusteringSpark.hierarchy(data, "s"), s"seed $seed")
    }
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
    val strings = Gen.listOfN(400, PatternGen.strings).pureApply(Gen.Parameters.default, Seed(7L))
    // A Spark string column holds UTF-8: a lone surrogate reads back as '?'.
    val held = strings.map(s => new String(s.getBytes(UTF_8), UTF_8))
    assert(held != strings && df(strings).collect().map(_.getString(0)).toSeq == held)
    val viaLocal = Synthesizer.leafClusters(held)
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

  test("an all-null column synthesizes to an empty result") {
    import spark.implicits._
    val root = PatternClusteringSpark.hierarchy(Seq(Option.empty[String], None, None).toDF("s"), "s")
    assert(root.count == 0)
    for (target <- Seq(Tokenizer.tokenize("(734) 645-8397"), Pattern.of(Token.lit("N"), Token.lit("/"), Token.lit("A"))))
      assert(Synthesizer.synthesize(root, Seq(target)) == Synthesizer.Result(Vector.empty, Vector.empty),
        target.render)
  }

  test("hierarchy from a DataFrame equals the local hierarchy") {
    val strings = Seq("734-422-8073", "734.236.3466", "7344258397", "N/A")
    val viaSpark = PatternClusteringSpark.hierarchy(df(strings), "s")
    val viaLocal = Synthesizer.hierarchyOf(strings)
    assert(viaSpark.leaves.map(_.pattern).toSet == viaLocal.leaves.map(_.pattern).toSet)
    assert(viaSpark.count == viaLocal.count)
  }

  test("clusterCounts lists null values in a row of their own") {
    import spark.implicits._
    val data = Seq(Some("ab"), None, Some("cd")).toDF("s")
    val rows = PatternClusteringSpark.clusterCounts(data, "s").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getString(2)))
    assert(rows.toSeq == Seq((Tokenizer.tokenize("ab").render, 2L, "ab"), (null, 1L, null)))
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
