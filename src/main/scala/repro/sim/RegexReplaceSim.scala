package repro.sim

import repro.core._
import repro.core.UniFi.{Branch, ConstStr, Plan, Program}

/** §7.4 simulated RegexReplace (Trifacta) user.
  *
  * RegexReplace models Trifacta Wrangler's manual Replace feature: an
  * ordered recipe of full-match `Replace(regex, replacement)` operations,
  * first match wins, unmatched strings pass through. An op is kept as a
  * UniFi branch, Match(pattern) → plan over its tokens, and a recipe runs as
  * a `Program` without targets; an op's user-facing regex and replacement
  * come from `RegexExplain`.
  *
  * The user iterates over the data; for the first record the current
  * recipe still gets wrong they author one `Replace(regex, replacement)`:
  * a pattern-level op when the record's pattern can be aligned to the
  * desired output (a competent user writing token-class regexes), else an
  * exact-string op for that single record. Per the paper, each authored
  * Replace costs 2 Steps (two regexes to type); records the final recipe
  * fails on are added as punishment.
  *
  * Ops are first-match-wins; an op created because an earlier op
  * mis-transforms a record is prepended as a more specific exact-string
  * op, as a Trifacta user would reorder their recipe.
  */
object RegexReplaceSim {

  /** `ops` is the final recipe, in priority order. */
  final case class Outcome(ops: Vector[Branch], failures: Int, perfect: Boolean) {
    def steps: Int = 2 * ops.size + failures
  }

  /** Author an op for one record, as a competent user would: reference a
    * capture group wherever a source token carries the needed value
    * (preferring left-to-right order), and type a constant otherwise. The
    * resulting op is exact on this record by construction and generalizes
    * to every record sharing the pattern with the same positional layout.
    */
  private[sim] def authorOp(in: String, out: String): Branch = {
    val (src, srcVals) = Tokenizer.tokenizeWithValues(in)
    val (tgt, tgtVals) = Tokenizer.tokenizeWithValues(out)
    // Greedy longest-contiguous-run alignment: at each target position,
    // extract the source span matching the longest prefix of the remaining
    // target values (a user drags over "San Diego", not the "S" of "St").
    val exprs = Vector.newBuilder[UniFi.StringExpr]
    var t = 0
    while (t < tgtVals.size) {
      def runLen(j: Int): Int = {
        var k = 0
        while (t + k < tgtVals.size && j + k < srcVals.size && srcVals(j + k) == tgtVals(t + k)) k += 1
        k
      }
      val best = srcVals.indices.map(j => (runLen(j), j)).maxByOption { case (k, j) => (k, -j) }
      best match {
        case Some((k, j)) if k > 0 =>
          exprs += UniFi.Extract(j + 1, j + k); t += k
        case _ =>
          exprs += ConstStr(tgtVals(t)); t += 1
      }
    }
    val plan = Plan(exprs.result())
    // A competent user writes the generalized regex ("[A-Z][a-z]+" rather
    // than "[A-Z][a-z]{4}") so one op covers the whole format family.
    // Strategy-1 generalization preserves token positions (leaf patterns
    // have no adjacent same-class runs), so the plan carries over.
    val generalized = Hierarchy.getParent(src, Hierarchy.strategy1)
    val genOp = Branch(generalized, plan)
    if (Program(Vector.empty, Vector(genOp))(in).contains(out)) genOp else Branch(src, plan)
  }

  private def exactOp(in: String, out: String): Branch =
    Branch(Pattern.of(Token.lit(in)), Plan(Vector(ConstStr(out))))

  def run(data: Seq[(String, String)], opBudget: Int = 30): Outcome = {
    var ops = Vector.empty[Branch]
    var recipe = Program(Vector.empty, ops)
    var done = false
    while (!done && ops.size < opBudget) {
      data.find { case (in, out) => recipe.applyFlagged(in)._1 != out } match {
        case None => done = true
        case Some((in, out)) =>
          ops = if (recipe(in).isDefined) exactOp(in, out) +: ops else ops :+ authorOp(in, out)
          recipe = Program(Vector.empty, ops)
      }
    }
    val failures = data.count { case (in, out) => recipe.applyFlagged(in)._1 != out }
    Outcome(ops, failures, failures == 0)
  }
}
