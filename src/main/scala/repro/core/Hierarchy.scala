package repro.core

/** §4.2 agglomerative pattern cluster refinement (Algorithm 1) and the
  * pattern cluster hierarchy.
  *
  * Three refinement rounds, each with one generalization strategy:
  *   1. natural-number quantifiers → `+`
  *   2. `<L>`, `<U>` → `<A>`
  *   3. `<A>`, `<D>`, `'_'`, `'-'` (`TokType.ANExtension`) → `<AN>`
  * After each token-wise generalization, adjacent same-class tokens merge.
  */
object Hierarchy {

  /** A node of the pattern cluster hierarchy. Leaves are tokenization-level
    * patterns; internal nodes are parent (more generic) patterns. `count`
    * is the number of raw strings covered.
    */
  final case class PNode(pattern: Pattern, children: Vector[PNode], count: Long) {
    def isLeaf: Boolean = children.isEmpty
    /** All nodes in this subtree, pre-order (node before its children). */
    def preOrder: Vector[PNode] = this +: children.flatMap(_.preOrder)
    /** All leaf patterns below (or at) this node. */
    def leaves: Vector[PNode] = if (isLeaf) Vector(this) else children.flatMap(_.leaves)
  }

  /** A generalization strategy `g̃`: maps one token to its parent token. */
  type Strategy = Token => Token

  val strategy1: Strategy = {
    case t @ Token(TokType.Lit(_), _) => t
    case Token(tpe, _)                => Token(tpe, Quant.Plus)
  }

  val strategy2: Strategy = {
    case Token(TokType.L, q) => Token(TokType.A, q)
    case Token(TokType.U, q) => Token(TokType.A, q)
    case t                   => t
  }

  /** Folds only one-character literals of `TokType.ANExtension`: an
    * alphanumeric constant such as `'1'` or `'CPT'` keeps its own token.
    */
  val strategy3: Strategy = {
    case Token(TokType.A, q) => Token(TokType.AN, q)
    case Token(TokType.D, q) => Token(TokType.AN, q)
    case Token(TokType.Lit(v), _) if v.length == 1 && TokType.ANExtension.contains(v.charAt(0)) =>
      Token(TokType.AN, Quant.Num(1))
    case t => t
  }

  val strategies: List[Strategy] = List(strategy1, strategy2, strategy3)

  /** `getParent(p, g̃)`: token-wise generalization then adjacent merge. */
  def getParent(p: Pattern, g: Strategy): Pattern =
    Pattern(p.tokens.map(g)).mergeAdjacent

  /** Algorithm 1: build one more-generic layer above `children`.
    *
    * Children mapping to the same parent pattern are grouped; parents are
    * admitted greedily by coverage (highest child-count first) until every
    * child is covered. A parent identical to its single child collapses
    * into that child (no degenerate chain nodes).
    */
  def refineLayer(children: Vector[PNode], g: Strategy): Vector[PNode] =
    // Greedy admission ranked by coverage, per Algorithm 1 lines 7-10. The
    // groups partition `children`, so every parent covers all of its group.
    byCoverage(children.groupBy(c => getParent(c.pattern, g)).toVector)(_.size).map {
      case (parent, Vector(only)) if only.pattern == parent => only
      case (parent, cs)                                     => PNode(parent, cs, cs.map(_.count).sum)
    }

  /** Build the full hierarchy from leaf clusters `(pattern, count)`.
    *
    * Returns the roots of the forest after the three refinement rounds
    * (usually one or a few `<AN>`-level patterns).
    */
  def build(leafClusters: Seq[(Pattern, Long)]): Vector[PNode] = {
    var layer = byCoverage(leafClusters.toVector)(identity)
      .map { case (p, c) => PNode(p, Vector.empty, c) }
    strategies.foreach { g => layer = refineLayer(layer, g) }
    layer
  }

  /** Sort `(pattern, a)` pairs by descending `size(a)`, ties by rendered
    * pattern, stably; each pattern is rendered once, not per comparison.
    */
  private def byCoverage[A](xs: Vector[(Pattern, A)])(size: A => Long): Vector[(Pattern, A)] =
    xs.map { case pa @ (p, a) => (size(a), p.render, pa) }
      .sortWith { case ((n1, r1, _), (n2, r2, _)) => n1 > n2 || (n1 == n2 && r1 < r2) }
      .map(_._3)

  /** Wrap a forest under a synthetic root for Algorithm 2's single queue.
    * The synthetic root's pattern is never used as a source candidate.
    */
  def root(forest: Vector[PNode]): PNode = forest match {
    case Vector(only) => only
    case _            => PNode(Pattern.empty, forest, forest.map(_.count).sum)
  }
}
