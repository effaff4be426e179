package repro.core

import UniFi.{ConstStr, Extract, StringExpr}

/** §6.2 token alignment (Algorithm 3).
  *
  * Builds a DAG whose nodes 0..m are positions in the target pattern
  * (m = |target|); an edge (a, b) carries operations that generate target
  * tokens a+1..b. Single-token Extract/ConstStr edges come from the
  * similarity scan; sequential Extracts are then combined bottom-up, which
  * (processed in increasing node order) yields every multi-token Extract —
  * the completeness argument of Appendix A.
  */
object Alignment {

  /** Most source-to-sink paths taken from one DAG, in depth-first order
    * (`allPlans`' default and `Mdl.best`'s budget). A DAG of n same-class
    * tokens has up to nⁿ paths; past the budget the rest are never ranked
    * (ROADMAP, Defect 1).
    */
  final val PathBudget = 50000

  /** The alignment DAG. `edges` maps (fromNode, toNode) → operations. */
  final case class Dag(m: Int, edges: Map[(Int, Int), Vector[StringExpr]]) {

    /** The first `cap` source-to-sink paths as plans, depth first: from a
      * node, edges to a nearer node first, and one edge's ops in their order.
      *
      * The reference enumeration: `Mdl.best` searches the same paths, at
      * the same positions in this order, without building them; `MdlSpec`, `SynthesizerSpec` and the
      * benchmark's traced replay call this.
      */
    def allPlans(cap: Int = PathBudget): Vector[UniFi.Plan] = {
      val out = Vector.newBuilder[UniFi.Plan]
      var count = 0
      def go(node: Int, acc: List[StringExpr]): Unit = {
        if (count >= cap) return
        if (node == m) {
          out += UniFi.Plan(acc.reverse.toVector); count += 1
        } else {
          for (next <- (node + 1) to m; op <- edges.getOrElse((node, next), Vector.empty))
            go(next, op :: acc)
        }
      }
      go(0, Nil)
      out.result()
    }

    def isFeasible: Boolean = {
      // reachability from 0 to m
      val reach = Array.fill(m + 1)(false)
      reach(0) = true
      for (a <- 0 to m; b <- (a + 1) to m)
        if (reach(a) && edges.contains((a, b))) reach(b) = true
      reach(m)
    }
  }

  /** Definition 6.1 plus the literal extensions documented in DESIGN.md. */
  def syntacticallySimilar(target: Token, source: Token): Boolean =
    (target.tpe, source.tpe) match {
      case (TokType.Lit(tv), TokType.Lit(sv)) => tv == sv
      case (TokType.Lit(_), _)                => false // ConstStr covers it
      case (tc, TokType.Lit(sv)) =>
        // extension: a literal source token can fill a base target token if
        // its content matches the class and quantifier
        sv.forall(c => TokType.matches(tc, c)) && (target.quant match {
          case Quant.Num(n) => sv.length == n
          case Quant.Plus   => sv.nonEmpty
        })
      case (tc, sc) =>
        tc == sc && ((target.quant, source.quant) match {
          case (Quant.Num(a), Quant.Num(b)) => a == b
          case _                            => true // one or both are '+'
        })
    }

  /** Algorithm 3: align `target` against candidate source `source`. */
  def align(target: Pattern, source: Pattern): Dag = {
    val m = target.size
    var edges = Map.empty[(Int, Int), Vector[StringExpr]]
    def add(a: Int, b: Int, op: StringExpr): Unit = {
      val cur = edges.getOrElse((a, b), Vector.empty)
      if (!cur.contains(op)) edges = edges.updated((a, b), cur :+ op)
    }

    // lines 2-9: single-token matches
    for ((t, iIdx) <- target.tokens.zipWithIndex) {
      val i = iIdx + 1
      for ((s, jIdx) <- source.tokens.zipWithIndex)
        if (syntacticallySimilar(t, s)) add(i - 1, i, Extract(jIdx + 1))
      t.literalValue.foreach(v => add(i - 1, i, ConstStr(v)))
    }

    // lines 10-17: combine sequential extracts. Processing nodes in
    // increasing order lets earlier combinations participate in later ones
    // (Extract(p,p+1) + Extract(p+2) → Extract(p,p+2), …).
    for (i <- 1 until m) {
      val incoming = for {
        a <- 0 until i
        op <- edges.getOrElse((a, i), Vector.empty).collect { case e: Extract => (a, e) }
      } yield op
      val outgoing = edges.getOrElse((i, i + 1), Vector.empty).collect { case e: Extract => e }
      for ((a, ep) <- incoming; eq <- outgoing if ep.j + 1 == eq.i)
        add(a, i + 1, Extract(ep.i, eq.j))
    }

    Dag(m, edges)
  }
}
