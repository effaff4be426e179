package repro.core

/** The UniFi language (Fig. 7) and its evaluator.
  *
  * Program  L := Switch((b₁,E₁), …, (bₙ,Eₙ))
  * Predicate b := Match(s, p)       — exact pattern match
  * Expression E := Concat(f₁, …, fₙ) — an "atomic transformation plan"
  * String expr f := ConstStr(s̃) | Extract(i, j)
  *
  * `Extract(i, j)` extracts the substrings matched by source-pattern tokens
  * i..j (1-based, inclusive). Evaluation grounds a string against the
  * branch's `Match` pattern (regex groups) and concatenates the pieces.
  */
object UniFi {

  sealed trait StringExpr {
    /** Display form of this operation; `Plan.render` joins these. */
    def render: String
  }
  /** Constant output string. */
  final case class ConstStr(s: String) extends StringExpr {
    def render: String = s"ConstStr('$s')"
  }
  /** Extract source tokens i..j (1-based, inclusive). */
  final case class Extract(i: Int, j: Int) extends StringExpr {
    require(i >= 1 && j >= i, s"bad extract range [$i,$j]")
    def render: String = if (i == j) s"Extract($i)" else s"Extract($i,$j)"
  }
  object Extract { def apply(i: Int): Extract = Extract(i, i) }

  /** An atomic transformation plan (Definition 5.1): Concat(f₁…fₙ). */
  final case class Plan(exprs: Vector[StringExpr]) {
    def render: String = exprs.map(_.render).mkString("Concat(", ", ", ")")

    /** Evaluate over per-token substrings of the matched source string. */
    def eval(tokenValues: Vector[String]): Option[String] = {
      val sb = new StringBuilder
      var ok = true
      exprs.foreach {
        case ConstStr(s) => sb.append(s)
        case Extract(i, j) =>
          if (j > tokenValues.size) ok = false
          else (i to j).foreach(k => sb.append(tokenValues(k - 1)))
      }
      if (ok) Some(sb.toString) else None
    }
  }

  /** One Switch branch: Match(pattern) → plan. */
  final case class Branch(pattern: Pattern, plan: Plan)

  /** A full UniFi program.
    *
    * `targets` are the user-selected target patterns: strings already in a
    * target form pass through unchanged (the labeling semantics of §3.2).
    * Non-matching strings are left unchanged and flagged (§6.1).
    */
  final case class Program(targets: Vector[Pattern], branches: Vector[Branch]) {

    /** Transform `s`; `None` means "no branch matched — flag for review". */
    def apply(s: String): Option[String] = {
      if (targets.exists(_.matches(s))) return Some(s)
      branches.iterator
        .map(b => b.pattern.split(s).flatMap(b.plan.eval))
        .collectFirst { case Some(out) => out }
    }

    /** Transform with the flag surfaced: (output, matchedSomeBranch). */
    def applyFlagged(s: String): (String, Boolean) =
      apply(s) match {
        case Some(out) => (out, true)
        case None      => (s, false)
      }

    def render: String =
      branches.map(b => s"Match(${b.pattern.render}) => ${b.plan.render}")
        .mkString("Switch(\n  ", ",\n  ", "\n)")
  }
}
