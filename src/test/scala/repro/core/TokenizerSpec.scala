package repro.core

import java.nio.charset.StandardCharsets.UTF_8

import org.scalatest.funsuite.AnyFunSuite
import TokType._

/** §4.1 tokenization rules. */
class TokenizerSpec extends AnyFunSuite {

  private def pat(s: String): String = Tokenizer.tokenize(s).render

  test("paper Example 3: Bob123@gmail.com") {
    assert(Tokenizer.tokenize("Bob123@gmail.com") == Pattern.of(
      Token(U, 1), Token(L, 2), Token(D, 3), Token.lit("@"),
      Token(L, 5), Token.lit("."), Token(L, 3),
    ))
  }

  test("empty string maps to empty pattern") {
    assert(Tokenizer.tokenize("") == Pattern.empty)
  }

  test("single digit") { assert(pat("7") == "<D>1") }
  test("digit run") { assert(pat("2017") == "<D>4") }
  test("lower run") { assert(pat("cat") == "<L>3") }
  test("upper run") { assert(pat("IBM") == "<U>3") }

  test("most precise base type is chosen (never alpha/alnum)") {
    val p = Tokenizer.tokenize("Excel2013")
    assert(p.tokens.map(_.tpe) == Vector(U, L, D))
  }

  test("each non-alphanumeric character is an individual literal token") {
    val p = Tokenizer.tokenize("a--b")
    assert(p.tokens == Vector(Token(L, 1), Token.lit("-"), Token.lit("-"), Token(L, 1)))
  }

  test("mixed case splits at case boundaries") {
    assert(pat("McMillan") == "<U>1<L>1<U>1<L>5")
  }

  test("phone number (734) 645-8397") {
    assert(pat("(734) 645-8397") == "'('<D>3')'' '<D>3'-'<D>4")
  }

  test("quantifiers are natural numbers at tokenization") {
    assert(Tokenizer.tokenize("aaaa1111").tokens.forall(_.quant.isInstanceOf[Quant.Num]))
  }

  test("whitespace is a literal") {
    assert(Tokenizer.tokenize(" ").tokens == Vector(Token.lit(" ")))
  }

  test("unicode-ish punctuation treated as literal") {
    assert(Tokenizer.tokenize("a€b").tokens.size == 3)
  }

  test("tokenizeWithValues returns per-token substrings") {
    val (p, vals) = Tokenizer.tokenizeWithValues("Bob123@gmail.com")
    assert(vals == Vector("Bob".take(1), "ob", "123", "@", "gmail", ".", "com"))
    assert(p.tokens.size == vals.size)
  }

  test("tokenizeWithValues concatenation is the identity") {
    val r = new scala.util.Random(7)
    (1 to 200).foreach { _ =>
      val s = (1 to r.nextInt(20)).map(_ => r.nextPrintableChar()).mkString
      val (_, vals) = Tokenizer.tokenizeWithValues(s)
      assert(vals.mkString == s, s"for string '$s'")
    }
  }

  test("every string matches its own pattern (property)") {
    val r = new scala.util.Random(13)
    (1 to 300).foreach { _ =>
      val s = (1 to (1 + r.nextInt(25))).map(_ => r.nextPrintableChar()).mkString
      val p = Tokenizer.tokenize(s)
      assert(p.matches(s), s"'$s' should match its own pattern ${p.render}")
    }
  }

  test("strings with the same pattern split into same-arity token values") {
    val a = Tokenizer.tokenizeWithValues("734-422-8073")
    val b = Tokenizer.tokenizeWithValues("201-555-0100")
    assert(a._1 == b._1)
    assert(a._2.size == b._2.size)
  }

  test("tokenization is deterministic") {
    assert(Tokenizer.tokenize("x1-Y2") == Tokenizer.tokenize("x1-Y2"))
  }

  test("leading/trailing punctuation preserved") {
    assert(pat(".ab.") == "'.'<L>2'.'")
  }

  test("digits with leading zeros") { assert(pat("007") == "<D>3") }

  test("a character outside the BMP is one literal token that matches it") {
    assert(Tokenizer.tokenize("a😀").tokens == Vector(Token(TokType.L, 1), Token.lit("😀")))
    assert(Tokenizer.tokenize("a😀").matches("a😀"))
    assert(pat("😀𝔸-😀") == "'😀''𝔸''-''😀'")
    // a lone surrogate stays a token of its own
    assert(Tokenizer.tokenize("\uD83Dx\uDE00").tokens.map(_.literalValue) ==
      Vector(Some("\uD83D"), None, Some("\uDE00")))
  }

  test("strings with surrogates match their own pattern and render no lone surrogate") {
    val r = new scala.util.Random(17)
    val alphabet = Seq("a", "B", "7", "-", "é", "😀", "𝔸", "\uD83D", "\uDE00")
    (1 to 500).foreach { _ =>
      val s = Seq.fill(r.nextInt(8))(alphabet(r.nextInt(alphabet.size))).mkString
      val p = Tokenizer.tokenize(s)
      assert(p.matches(s), s"'$s' should match its own pattern ${p.render}")
      assert(Tokenizer.tokenizeWithValues(s)._2.mkString == s)
      // UTF-8 round-trips a string iff it holds no lone surrogate
      def wellFormed(t: String) = new String(t.getBytes(UTF_8), UTF_8) == t
      if (wellFormed(s)) assert(wellFormed(p.render), s"pattern of '$s': ${p.render}")
    }
  }
}
