package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import TokType._

/** The one-pass cluster profile behind leaf clustering, constant discovery
  * (§4) and the pattern listings: its compact key, its merge, and agreement
  * with straightforward `groupBy(tokenize)` references.
  */
class ClusterProfileSpec extends AnyFunSuite with AsciiMessages {

  import PatternGen.{cells, check, columns, strings, tagged, words}

  /** A target with a constant and a `+`, so that strings of one leaf cluster
    * can differ in whether they are on target, and a plain leaf target.
    */
  private val targets = Seq(
    Pattern.of(Token.lit("Dr."), Token.lit(" "), Token(U, 1), Token(L, Quant.Plus)),
    Tokenizer.tokenize("CPT127"))

  private def profileOf(column: Seq[String]): ClusterProfile =
    column.foldLeft(ClusterProfile.against(targets))(_ add _)

  private def utf8Compare(a: String, b: String): Int =
    java.util.Arrays.compareUnsigned(a.getBytes(UTF_8), b.getBytes(UTF_8))

  /** Leaf clusters as `groupBy(tokenize)` plus a per-position distinct count. */
  private def reference(column: Seq[String]): Map[Pattern, Long] =
    column.groupBy(Tokenizer.tokenize).toSeq.map { case (leaf, members) =>
      val values = members.map(Tokenizer.tokenizeWithValues(_)._2)
      val refined =
        if (members.size < ClusterProfile.MinSupport) leaf
        else Pattern(leaf.tokens.zipWithIndex.map { case (t, i) =>
          val distinct = values.map(_(i)).distinct
          if (!t.isLiteral && distinct.size == 1) Token.lit(distinct.head) else t
        })
      refined -> members.size.toLong
    }.groupMapReduce(_._1)(_._2)(_ + _)

  test("merging split profiles equals folding the whole") {
    check(Prop.forAll(columns, Gen.choose(0, 80)) { (column, at) =>
      val (a, b) = column.splitAt(at)
      val whole = ClusterProfile.of(column)
      ClusterProfile.of(a).merge(ClusterProfile.of(b)) == whole &&
        ClusterProfile.of(b).merge(ClusterProfile.of(a)) == whole
    }, tests = 300)
    check(Prop.forAllNoShrink(cells, Gen.choose(0, 60)) { (column, at) =>
      val (a, b) = column.splitAt(at)
      val whole = profileOf(column)
      profileOf(a).merge(profileOf(b)) == whole &&
        profileOf(b).merge(profileOf(a)) == whole
    }, tests = 300)
  }

  test("merge is associative and leaves its argument alone") {
    check(Prop.forAll(columns, columns, columns) { (a, b, c) =>
      val (pa, pb, pc) = (ClusterProfile.of(a), ClusterProfile.of(b), ClusterProfile.of(c))
      val left = ClusterProfile.of(a).merge(pb).merge(pc)
      val right = ClusterProfile.of(a).merge(ClusterProfile.of(b).merge(pc))
      left == right && left == ClusterProfile.of(a ++ b ++ c) &&
        pb == ClusterProfile.of(b) && pc == ClusterProfile.of(c) && pa == ClusterProfile.of(a)
    }, tests = 300)
  }

  test("leafClusters equals the groupBy(tokenize) reference") {
    check(Prop.forAll(columns) { column =>
      Synthesizer.leafClusters(column) == reference(column) &&
        ClusterProfile.of(column).leaves ==
          column.groupBy(Tokenizer.tokenize).view.mapValues(_.size.toLong).toMap
    }, tests = 300)
  }

  // §4.1 "Find Constant Tokens": a class run whose substring is equal across
  // a cluster of at least `MinSupport` strings becomes a literal.
  private def refinedOf(strings: String*): Pattern = ClusterProfile.of(strings).clusters().keys.head

  test("constants: an all-equal run becomes a literal") {
    assert(ClusterProfile.of(Seq("CPT115", "CPT204", "CPT987")).clusters() ==
      Map(Pattern.of(Token.lit("CPT"), Token(D, 3)) -> 3L))
  }

  test("constants: a varying run keeps its base token") {
    assert(refinedOf("CPT115", "CPT204").tokens(1) == Token(D, 3))
  }

  test("constants: the Dr. title becomes literals") {
    assert(refinedOf("Dr. Eran", "Dr. Kath", "Dr. Pete").tokens.take(3) ==
      Vector(Token.lit("D"), Token.lit("r"), Token.lit(".")))
  }

  test("constants: adjacent literals are not merged") {
    // alignment needs the boundary to extract 'CPT' into a <U>+ target token
    assert(refinedOf("CPT-115", "CPT-204") == Pattern.of(Token.lit("CPT"), Token.lit("-"), Token(D, 3)))
  }

  test("constants: a singleton cluster keeps its leaf") {
    assert(ClusterProfile.of(Seq("CPT115")).clusters() == Map(Tokenizer.tokenize("CPT115") -> 1L))
  }

  test("constants: the refined pattern matches its members") {
    val strings = Seq("Dr. Eran", "Dr. Kath")
    strings.foreach(s => assert(refinedOf(strings: _*).matches(s)))
  }

  test("constants: an empty input has no clusters") {
    assert(ClusterProfile.of(Nil).clusters().isEmpty)
  }

  test("merged profiles discover constants") {
    val partition1 = ClusterProfile.of(Seq("AB12", "AB34"))
    val partition2 = ClusterProfile.of(Seq("AB12", "AB56", "AB78"))
    assert(partition1.merge(partition2).clusters() ==
      Map(Pattern.of(Token.lit("AB"), Token(D, 2)) -> 5L))
  }

  test("null strings are skipped") {
    val profile = ClusterProfile.of(Seq("CPT115", null, "CPT204", null))
    assert(profile.leaves == ClusterProfile.of(Seq("CPT115", "CPT204")).leaves)
    assert(profile.clusters() == Map(Pattern.of(Token.lit("CPT"), Token(D, 3)) -> 2L))
    assert(profile.listing.head == ClusterProfile.Listed(null, 2, null, onTarget = false))
  }

  test("listing equals a groupBy(render) reference in Spark's order") {
    check(Prop.forAllNoShrink(cells) { column =>
      val reference = column.groupBy(s => Option(s).map(Tokenizer.tokenize(_).render).orNull).toSeq
        .map { case (pattern, members) =>
          val present = members.filter(_ != null)
          ClusterProfile.Listed(pattern, members.size.toLong, present.reduceOption((a, b) =>
            if (utf8Compare(a, b) <= 0) a else b).orNull,
            pattern != null && present.forall(s => targets.exists(_.matches(s))))
        }
        .sortWith { (a, b) =>
          if (a.count != b.count) a.count > b.count
          else a.pattern == null || (b.pattern != null && utf8Compare(a.pattern, b.pattern) < 0)
        }
      val profile = profileOf(column)
      profile.listing == reference &&
        profile.allOnTarget == column.filter(_ != null).forall(s => targets.exists(_.matches(s)))
    }, tests = 1000)
  }

  test("within a leaf cluster compareTo agrees with UTF-8 byte order") {
    // A leaf template: literals (some past the BMP or high in it) and class runs.
    val segment: Gen[Either[String, (String, Int)]] = Gen.oneOf(
      Gen.oneOf("-", " ", "é", "～", "\uFFFD", "😀", "𝔸").map(Left(_)),
      Gen.zip(Gen.oneOf("0123456789", "abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
        Gen.choose(1, 3)).map(Right(_)))
    def fill(template: List[Either[String, (String, Int)]]): Gen[String] =
      Gen.sequence[List[String], String](template.map {
        case Left(lit)         => Gen.const(lit)
        case Right((chars, n)) => Gen.listOfN(n, Gen.oneOf(chars)).map(_.mkString)
      }).map(_.mkString)
    val pairs = for {
      template <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, segment))
      s <- fill(template)
      t <- fill(template)
    } yield (s, t)
    check(Prop.forAllNoShrink(pairs) { case (s, t) =>
      Tokenizer.tokenize(s) == Tokenizer.tokenize(t) &&
        Integer.signum(s.compareTo(t)) == Integer.signum(utf8Compare(s, t))
    }, tests = 2000)
    // across leaf clusters the two orders can disagree
    assert("～".compareTo("😀") > 0 && utf8Compare("～", "😀") < 0)
  }

  test("keys agree exactly when leaf patterns agree") {
    check(Prop.forAll(strings, strings) { (s, t) =>
      ClusterProfile.leafPattern(ClusterProfile.key(s)) == Tokenizer.tokenize(s) &&
        (ClusterProfile.key(s) == ClusterProfile.key(t)) == (Tokenizer.tokenize(s) == Tokenizer.tokenize(t))
    }, tests = 2000)
  }

  test("key keeps run lengths past 16 bits apart") {
    val long = "0" * 70000
    val wrapped = "0" * (70000 % 65536)
    assert(ClusterProfile.key(long) != ClusterProfile.key(wrapped))
    assert(ClusterProfile.leafPattern(ClusterProfile.key(long)) == Pattern.of(Token(D, 70000)))
    assert(ClusterProfile.leafPattern(ClusterProfile.key(wrapped)) == Pattern.of(Token(D, 4464)))
    assert(ClusterProfile.of(Seq(long, wrapped, wrapped)).leaves ==
      Map(Pattern.of(Token(D, 70000)) -> 1L, Pattern.of(Token(D, 4464)) -> 2L))
  }

  test("literal characters equal to key tags stay distinct") {
    assert(tagged.size == 1 + 8 + 64 + 512)
    tagged.foreach { s =>
      assert(ClusterProfile.leafPattern(ClusterProfile.key(s)) == Tokenizer.tokenize(s), s.map(_.toInt))
    }
    assert(tagged.map(ClusterProfile.key).distinct.size == tagged.map(Tokenizer.tokenize).distinct.size)
  }

  test("a surrogate pair is one literal in the key, a lone surrogate one character") {
    val all = words(Seq("😀", "𝔸", "\uD83D", "\uDE00", "é", "\u0004", "7", "a"))
    all.foreach { s =>
      assert(ClusterProfile.leafPattern(ClusterProfile.key(s)) == Tokenizer.tokenize(s), s.map(_.toInt))
    }
    assert(all.map(ClusterProfile.key).distinct.size == all.map(Tokenizer.tokenize).distinct.size)
    assert(ClusterProfile.of(Seq("a😀", "b😀")).listing.map(_.pattern) == Seq("<L>1'😀'"))
  }

  test("the empty string has a key and a cluster") {
    assert(ClusterProfile.key("") == "")
    assert(ClusterProfile.leafPattern("") == Pattern.empty)
    assert(ClusterProfile.of(Seq("", "", "7")).clusters() ==
      Map(Pattern.empty -> 2L, Pattern.of(Token(D, 1)) -> 1L))
  }
}
