package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import TokType._
import Hierarchy._

/** §4.2 Algorithm 1 and the three generalization strategies. */
class HierarchySpec extends AnyFunSuite with AsciiMessages {

  private val email = Tokenizer.tokenize("Bob123@gmail.com")

  test("strategy 1 widens quantifiers to plus") {
    val p = getParent(email, strategy1)
    assert(p.render == "<U>+<L>+<D>+'@'<L>+'.'<L>+")
  }

  test("strategy 2 folds lower/upper into alpha and merges neighbours") {
    val p1 = getParent(email, strategy1)
    val p2 = getParent(p1, strategy2)
    assert(p2.render == "<A>+<D>+'@'<A>+'.'<A>+")
  }

  test("strategy 3 folds alpha/digit/dash/underscore into alnum") {
    val p3 = getParent(getParent(getParent(email, strategy1), strategy2), strategy3)
    assert(p3.render == "<AN>+'@'<AN>+'.'<AN>+")
  }

  test("paper Example 4: the full chain for Bob123@gmail.com") {
    var p = email
    val renders = strategies.map { g => p = getParent(p, g); p.render }
    assert(renders == List(
      "<U>+<L>+<D>+'@'<L>+'.'<L>+",
      "<A>+<D>+'@'<A>+'.'<A>+",
      "<AN>+'@'<AN>+'.'<AN>+",
    ))
  }

  test("strategy 3 folds literal dash") {
    def top(p: Pattern) = getParent(getParent(getParent(p, strategy1), strategy2), strategy3)
    assert(top(Tokenizer.tokenize("a-b")).render == "<AN>+")
    assert(top(Tokenizer.tokenize("a_b")).render == "<AN>+")
    // Alphanumeric constants keep their own token: '1' of "+1 ..." after
    // constant discovery, and 'CPT'.
    val leaves = Synthesizer.leafClusters(Seq("+1 734-5", "+1 201-6", "CPT-1", "CPT-2")).keySet
    assert(leaves.map(top(_).render) == Set("'+''1'' '<AN>+", "'CPT'<AN>+"))
  }

  test("strategy 1 leaves literal tokens alone") {
    val p = getParent(Tokenizer.tokenize("1-2"), strategy1)
    assert(p.tokens(1) == Token.lit("-"))
  }

  test("refineLayer groups children under a common parent") {
    val leaves = Vector("123-456", "12-3456", "1-2")
      .map(s => PNode(Tokenizer.tokenize(s), Vector.empty, 1))
    val layer = refineLayer(leaves, strategy1)
    assert(layer.size == 1)
    assert(layer.head.pattern.render == "<D>+'-'<D>+")
    assert(layer.head.children.size == 3)
    assert(layer.head.count == 3)
  }

  test("refineLayer collapses a parent identical to its single child") {
    val leaf = PNode(Pattern.of(Token(D, Quant.Plus)), Vector.empty, 4)
    val layer = refineLayer(Vector(leaf), strategy1)
    assert(layer == Vector(leaf)) // no degenerate chain node
  }

  test("build produces leaves under generic roots with preserved counts") {
    val clusters = Seq(
      (Tokenizer.tokenize("734-422-8073"), 10L),
      (Tokenizer.tokenize("73-42-80"), 5L),
      (Tokenizer.tokenize("(734) 645-8397"), 3L),
    )
    val forest = build(clusters)
    assert(forest.map(_.count).sum == 18L)
    val leaves = forest.flatMap(_.leaves)
    assert(leaves.map(_.count).sum == 18L)
    assert(leaves.size == 3)
  }

  test("hierarchy keeps every discovered leaf pattern (no information loss)") {
    val clusters = Seq(
      (Tokenizer.tokenize("a1"), 1L), (Tokenizer.tokenize("B2"), 1L),
      (Tokenizer.tokenize("cc33"), 1L),
    )
    val leavesIn = clusters.map(_._1).toSet
    val leavesOut = build(clusters).flatMap(_.leaves).map(_.pattern).toSet
    assert(leavesIn == leavesOut)
  }

  test("root wraps a multi-root forest in a synthetic empty-pattern node") {
    val forest = build(Seq(
      (Tokenizer.tokenize("abc"), 1L),
      (Tokenizer.tokenize("a@b"), 1L), // '@' survives to AN level
    ))
    assert(forest.size == 2)
    val r = root(forest)
    assert(r.pattern.isEmpty && r.children.size == 2)
  }

  test("root of a single tree is that tree") {
    val forest = build(Seq((Tokenizer.tokenize("abc"), 1L)))
    assert(root(forest) == forest.head)
  }

  test("preOrder visits node before children") {
    val forest = build(Seq(
      (Tokenizer.tokenize("123-456"), 1L), (Tokenizer.tokenize("12-34"), 1L),
    ))
    val r = root(forest)
    val order = r.preOrder
    assert(order.head == r)
    assert(order.size >= 3)
  }

  test("counts aggregate up the hierarchy") {
    val forest = build(Seq(
      (Tokenizer.tokenize("aa"), 7L), (Tokenizer.tokenize("aaa"), 5L),
    ))
    assert(forest.size == 1 && forest.head.count == 12L)
  }
}
