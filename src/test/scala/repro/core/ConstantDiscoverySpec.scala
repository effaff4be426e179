package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TokType._

/** §4.1 "Find Constant Tokens". */
class ConstantDiscoverySpec extends AnyFunSuite {

  test("all-equal position becomes a literal") {
    val strings = Seq("CPT115", "CPT204", "CPT987")
    val p = Tokenizer.tokenize(strings.head)
    val refined = ConstantDiscovery.discoverLocal(p, strings)
    assert(refined == Pattern.of(Token.lit("CPT"), Token(D, 3)))
  }

  test("varying position keeps its base token") {
    val strings = Seq("CPT115", "CPT204")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize("CPT115"), strings)
    assert(refined.tokens(1) == Token(D, 3))
  }

  test("the Dr. example: title tokens become constants") {
    val strings = Seq("Dr. Eran", "Dr. Kath", "Dr. Pete")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    assert(refined.tokens.take(3) == Vector(Token.lit("D"), Token.lit("r"), Token.lit(".")))
  }

  test("adjacent literals are not merged (token boundaries preserved for alignment)") {
    val strings = Seq("CPT-115", "CPT-204")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    assert(refined == Pattern.of(Token.lit("CPT"), Token.lit("-"), Token(D, 3)))
  }

  test("singleton cluster is left untouched (minSupport)") {
    val p = Tokenizer.tokenize("CPT115")
    assert(ConstantDiscovery.discoverLocal(p, Seq("CPT115")) == p)
  }

  test("minSupport is configurable") {
    val p = Tokenizer.tokenize("CPT115")
    val refined = ConstantDiscovery.discoverLocal(p, Seq("CPT115"), minSupport = 1)
    assert(refined.tokens.forall(_.isLiteral))
  }

  test("refined pattern still matches every member string") {
    val strings = Seq("Dr. Eran", "Dr. Kath")
    val refined = ConstantDiscovery.discoverLocal(Tokenizer.tokenize(strings.head), strings)
    strings.foreach(s => assert(refined.matches(s)))
  }

  test("mergeLiterals merges runs for display") {
    val p = Pattern.of(Token.lit("D"), Token.lit("r"), Token.lit("."), Token(L, 2))
    assert(ConstantDiscovery.mergeLiterals(p) == Pattern.of(Token.lit("Dr."), Token(L, 2)))
  }

  test("empty strings list is a no-op") {
    val p = Tokenizer.tokenize("abc")
    assert(ConstantDiscovery.discoverLocal(p, Nil) == p)
  }
}
