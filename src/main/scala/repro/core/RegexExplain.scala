package repro.core

import UniFi.{Branch, ConstStr, Extract, Program}

/** §5 "Program Explanation": interpret a UniFi program as regexp-replace
  * operations (Fig. 4).
  *
  * Two executable flavors are emitted per branch:
  *   - Java syntax (`$1` references) — runnable via `String.replaceAll` /
  *     Spark `regexp_replace`;
  *   - RE2 syntax (`\1` references) — runnable via DuckDB
  *     `regexp_replace`, used by the oracle tests.
  * Only extracted tokens are captured: one group per maximal run of
  * consecutively extracted tokens, split wherever an Extract starts or ends,
  * so every Extract references whole groups. RE2 references only go up to
  * `\9` (`\10` reads as `\1` followed by `0`), so a branch that still needs
  * more than nine groups has no RE2 flavor. Both flavors anchor with `\A`
  * and `\z`, which Java and RE2 read as the bounds of the whole text, so a
  * string ending in a line terminator is not rewritten (Java's `$` matches
  * just before one). `renderForUser` shows each
  * Extract as one visual component, as the paper describes.
  */
object RegexExplain {

  /** RE2 replacements can reference groups `\1`–`\9` only. */
  private val Re2MaxGroups = 9

  /** One regexp replace operation. `re2` is `None` when the branch needs
    * more than `Re2MaxGroups` groups.
    */
  final case class Replace(pattern: Pattern, regex: String, javaReplacement: String,
                           re2: Option[String], natural: String) {
    /** Apply with Java semantics (used in tests to cross-check UniFi). */
    def applyJava(s: String): Option[String] =
      if (pattern.matches(s)) Some(s.replaceAll(regex, javaReplacement)) else None

    /** The RE2 replacement; fails when RE2 cannot express this branch. */
    def re2Replacement: String = re2.getOrElse(throw new UnsupportedOperationException(
      s"RE2 cannot reference more than $Re2MaxGroups groups: ${pattern.render}"))
  }

  // Digits are escaped too: after `$1`, a literal `0` would read as `$10`
  // once the regex has ten groups.
  private def escJavaRepl(s: String): String =
    s.flatMap(c => if (c == '\\' || c == '$' || c.isDigit) s"\\$c" else c.toString)

  private def escRe2Repl(s: String): String =
    s.replace("\\", "\\\\")

  /** Explain one branch as a Replace operation. */
  def explain(branch: Branch): Replace = {
    val p = branch.pattern
    val extracts = branch.plan.exprs.collect { case e: Extract => e }
    val cuts = extracts.flatMap(e => Vector(e.i, e.j + 1)).toSet
    // Capturing groups as token ranges, in source order.
    val groups: Vector[Range] =
      extracts.flatMap(e => e.i to e.j).distinct.sorted.foldLeft(Vector.empty[Range]) { (gs, k) =>
        if (gs.nonEmpty && gs.last.end == k - 1 && !cuts(k)) gs.init :+ (gs.last.start to k)
        else gs :+ (k to k)
      }
    def groupOf(k: Int): Int = groups.indexWhere(_.contains(k)) + 1

    val regex = p.tokens.zipWithIndex.map { case (t, idx) =>
      val k = idx + 1
      val open = if (groups.exists(_.start == k)) "(" else ""
      val close = if (groups.exists(_.end == k)) ")" else ""
      open + t.regex + close
    }.mkString("\\A", "", "\\z")

    def repl(ref: Int => String, escape: String => String): String =
      branch.plan.exprs.map {
        case ConstStr(s)   => escape(s)
        case Extract(i, j) => (groupOf(i) to groupOf(j)).map(ref).mkString
      }.mkString

    Replace(
      pattern = p,
      regex = regex,
      javaReplacement = repl(g => s"$$$g", escJavaRepl),
      re2 = Option.when(groups.size <= Re2MaxGroups)(repl(g => s"\\$g", escRe2Repl)),
      natural = renderForUser(branch),
    )
  }

  /** Fig. 4-style one-liner: each Extract is one component. */
  def renderForUser(branch: Branch): String = {
    val p = branch.pattern
    val components = branch.plan.exprs.map {
      case ConstStr(s)   => s"'$s'"
      case Extract(i, j) =>
        val txt = (i to j).map(k => p.tokens(k - 1).renderNatural).mkString
        s"($txt)"
    }.mkString
    s"Replace /${p.renderNatural}/ with $components"
  }

  /** Explain every branch of a program. */
  def explainProgram(prog: Program): Vector[Replace] = prog.branches.map(explain)
}
