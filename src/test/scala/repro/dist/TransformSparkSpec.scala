package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.UniFi._
import TransformSpark.{FlagCol, OutCol}

/** Distributed program application (per-partition UDF via withColumn) and
  * pattern-level verification; the regexp-replace explanation is checked
  * against the UDF output through the DuckDB oracle (RE2 flavor).
  */
class TransformSparkSpec extends SparkSpec {

  private val phone @ Branch(src, _) = PatternGen.phoneBranch
  private val target = Tokenizer.tokenize("(734) 645-8397")
  private val prog = Program(Vector(target), Vector(phone))

  test("transform rewrites matching records and flags them") {
    val out = TransformSpark.transform(df(Seq("201.555.0100", "N/A")), "s", prog).collect()
    val m = out.map(r => r.getString(0) -> (r.getString(1), r.getBoolean(2))).toMap
    assert(m("201.555.0100") == (("(201) 555-0100", true)))
    assert(m("N/A") == (("N/A", false)))
  }

  test("target-form records pass through flagged as matched") {
    val out = TransformSpark.transform(df(Seq("(555) 123-4567")), "s", prog).collect()
    assert(out.head.getString(1) == "(555) 123-4567")
    assert(out.head.getBoolean(2))
  }

  test("verifyPatterns clusters the output column") {
    val t = TransformSpark.transform(df(Seq("201.555.0100", "202.555.0100", "N/A")), "s", prog)
    val v = TransformSpark.verifyPatterns(t, OutCol, Seq(target)).collect()
    val byPat = v.map(r => (r.getString(0), r.getLong(1), r.getBoolean(2))).toList
    assert(byPat.contains((target.render, 2L, true)))
    assert(byPat.exists { case (p, n, isT) => p != target.render && n == 1L && !isT })
  }

  test("allVerified holds when every matched record reaches the target pattern") {
    val t = TransformSpark.transform(df(Seq("201.555.0100", "N/A")), "s", prog)
    assert(TransformSpark.allVerified(t, OutCol, FlagCol, Seq(target)))
  }

  test("allVerified runs the program once per row") {
    // a UDF shaped like `transform`'s that counts its calls
    val calls = spark.sparkContext.longAccumulator("program calls")
    val program = prog // a local, so the closure does not capture the suite
    val counted = udf { (s: String) => calls.add(1); program.applyFlagged(s) }
    val rows = Seq("201.555.0100", "202.555.0100", "(201) 555-0100", "N/A")
    // not a local relation, which the optimizer would evaluate on the driver
    val data = df(rows).repartition(2)
    val t = data.withColumn("_clx", counted(data("s")))
      .withColumn(OutCol, col("_clx._1"))
      .withColumn(FlagCol, col("_clx._2"))
      .drop("_clx")
    assert(TransformSpark.allVerified(t, OutCol, FlagCol, Seq(target)))
    assert(calls.sum == rows.size)
  }

  test("allVerified fails for a broken program") {
    val bad = Program(Vector(target), Vector(Branch(src, Plan(Vector(Extract(1))))))
    val t = TransformSpark.transform(df(Seq("201.555.0100")), "s", bad)
    assert(!TransformSpark.allVerified(t, OutCol, FlagCol, Seq(target)))
  }

  test("verification accepts a target that carries a constant") {
    val cpt = Synthesizer.leafClusters(Seq("CPT115", "CPT204", "CPT987")).keys.toVector
    assert(cpt.map(_.render) == Vector("'CPT'<D>3"))
    val t = TransformSpark.transform(df(Seq("CPT115", "CPT204", "CPT987")), "s", Program(cpt, prog.branches))
    assert(t.filter(col(FlagCol)).count() == 3)
    assert(TransformSpark.allVerified(t, OutCol, FlagCol, cpt))
    val v = TransformSpark.verifyPatterns(t, OutCol, cpt).collect()
    assert(v.map(r => (r.getString(0), r.getLong(1), r.getBoolean(2))).toSeq == Seq(("<U>3<D>3", 3L, true)))
  }

  test("verification accepts a target with '+' quantifiers") {
    // Table 3's target
    val bracketed = Pattern.of(Token.lit("["), Token(TokType.U, Quant.Plus), Token.lit("-"),
      Token(TokType.D, Quant.Plus), Token.lit("]"))
    val t = TransformSpark.transform(df(Seq("[CPT-00350]", "[MRI-1]", "CPT-00350")), "s",
      Program(Vector(bracketed), Vector.empty))
    assert(TransformSpark.allVerified(t, OutCol, FlagCol, Seq(bracketed)))
    val v = TransformSpark.verifyPatterns(t, OutCol, Seq(bracketed)).collect()
    assert(v.map(r => (r.getString(0), r.getBoolean(2))).toSet ==
      Set(("'['<U>3'-'<D>5']'", true), ("'['<U>3'-'<D>1']'", true), ("<U>3'-'<D>5", false)))
  }

  test("allVerified skips null outputs and verifyPatterns lists them") {
    import spark.implicits._
    val t = TransformSpark.transform(Seq(Some("201.555.0100"), None).toDF("s"), "s", prog)
      .withColumn(FlagCol, lit(true))
    assert(TransformSpark.allVerified(t, OutCol, FlagCol, Seq(target)))
    val v = TransformSpark.verifyPatterns(t, OutCol, Seq(target)).collect()
    assert(v.map(r => (r.getString(0), r.getLong(1), r.getBoolean(2))).toSeq ==
      Seq((null, 1L, false), (target.render, 1L, true)))
  }

  test("oracle: UDF transform equals DuckDB regexp_replace of the explanation") {
    val replace = RegexExplain.explain(prog.branches.head)
    val data = df(Seq("201.555.0100", "944.123.9876", "000.111.2222"))
    val sparkOut = TransformSpark.transform(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    // NB: standard SQL string literals do not process backslashes, so the
    // RE2 replacement goes in verbatim.
    Oracle.assertEquivalent(
      sparkOut,
      s"SELECT s, regexp_replace(s, '${replace.regex}', '${replace.re2Replacement}') AS out FROM t",
      "t" -> data,
    )
  }

  test("oracle: multi-branch program as chained DuckDB replaces") {
    val src2 = Tokenizer.tokenize("734-645-8397")
    val plan2 = Plan(Vector(
      ConstStr("("), Extract(1), ConstStr(") "), Extract(3), ConstStr("-"), Extract(5)))
    val prog2 = Program(Vector(target), Vector(phone, Branch(src2, plan2)))
    val replaces = RegexExplain.explainProgram(prog2)
    val data = df(Seq("201.555.0100", "201-555-0100", "(9) 9"))
    val sql = replaces.foldLeft("s") { (expr, r) =>
      s"regexp_replace($expr, '${r.regex}', '${r.re2Replacement}')"
    }
    val sparkOut = TransformSpark.transform(data, "s", prog2)
      .select(col("s"), col(OutCol) as "out")
    Oracle.assertEquivalent(sparkOut, s"SELECT s, $sql AS out FROM t", "t" -> data)
  }

  test("oracle: a branch extracting eighteen tokens fits RE2's nine groups") {
    // one group per token would need \10 and up, which RE2 reads as \1 then 0
    val src10 = Tokenizer.tokenize("10.11.12.13.14.15.16.17.18.19")
    val plan10 = Plan(Vector(Extract(1, 9), ConstStr(" "), Extract(11, 19)))
    val prog10 = Program(Vector(Tokenizer.tokenize("10.11.12.13.14 15.16.17.18.19")),
      Vector(Branch(src10, plan10)))
    val replace = RegexExplain.explain(prog10.branches.head)
    val data = df(Seq("10.11.12.13.14.15.16.17.18.19", "99.98.97.96.95.94.93.92.91.90"))
    val sparkOut = TransformSpark.transform(data, "s", prog10)
      .select(col("s"), col(OutCol) as "out")
    assert(sparkOut.collect().exists(_.getString(1) == "10.11.12.13.14 15.16.17.18.19"))
    Oracle.assertEquivalent(
      sparkOut,
      s"SELECT s, regexp_replace(s, '${replace.regex}', '${replace.re2Replacement}') AS out FROM t",
      "t" -> data,
    )
  }

  test("Catalyst-native path: transformViaRegex equals the UDF path") {
    val data = df(Seq("201.555.0100", "944.123.9876", "(555) 123-4567", "N/A"))
    val viaUdf = TransformSpark.transform(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    val viaRegex = TransformSpark.transformViaRegex(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    val a = viaUdf.collect().map(_.toString).sorted
    val b = viaRegex.collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("Catalyst-native path agrees with the DuckDB oracle") {
    val data = df(Seq("201.555.0100", "123.456.7890"))
    val replace = RegexExplain.explain(prog.branches.head)
    val viaRegex = TransformSpark.transformViaRegex(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    Oracle.assertEquivalent(
      viaRegex,
      s"SELECT s, regexp_replace(s, '${replace.regex}', '${replace.re2Replacement}') AS out FROM t",
      "t" -> data,
    )
  }

  test("oracle: a cell ending in a line terminator is left alone by every flavour") {
    // Java's `$` also matches just before a final line terminator; RE2's does not
    val data = df(Seq("201.555.0100\n", "201.555.0100\r\n", "201.555.0100\u2028",
      "(201) 555-0100\n", "201.555.0100"))
    val replace = RegexExplain.explain(prog.branches.head)
    val viaUdf = TransformSpark.transform(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    val viaRegex = TransformSpark.transformViaRegex(data, "s", prog)
      .select(col("s"), col(OutCol) as "out")
    assert(viaUdf.collect().count(r => r.getString(0) == r.getString(1)) == 4)
    assert(viaRegex.collect().map(_.toString).sorted.sameElements(viaUdf.collect().map(_.toString).sorted))
    Oracle.assertEquivalent(
      viaUdf,
      s"SELECT s, regexp_replace(s, '${replace.regex}', '${replace.re2Replacement}') AS out FROM t",
      "t" -> data,
    )
  }

  test("transform handles null input") {
    import spark.implicits._
    val data = Seq(Some("201.555.0100"), None).toDF("s")
    val out = TransformSpark.transform(data, "s", prog).collect()
    assert(out.exists(r => r.isNullAt(1) || r.getString(1) == null || r.get(1) == null))
  }
}
