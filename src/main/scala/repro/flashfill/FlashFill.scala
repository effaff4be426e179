package repro.flashfill

import repro.core.{Hierarchy, Pattern, Tokenizer}

/** A loop-free FlashFill-class string program (Gulwani 2011 / BlinkFill
  * 2016 family), used as the paper's PBE baseline (§7).
  *
  * A program is a switch over *branches*; each branch is keyed by the
  * generalized token pattern of its training inputs (BlinkFill-style input
  * graph), optionally refined by an exact leaf pattern and/or a
  * distinguishing keyword (FlashFill's learned conditionals). A branch
  * body is a concatenation of atoms over the input's tokenization:
  * constants, token-range extractions, and sub-token prefix/suffix
  * extractions (e.g. initials).
  *
  * Inputs matching no branch pass through unchanged — in the lazy-user
  * simulation this surfaces as a failed record prompting a new example,
  * mirroring how a real FlashFill user iterates.
  */
object FlashFill {

  sealed trait Atom
  final case class FConst(s: String) extends Atom
  /** Concatenated values of input tokens i..j (1-based, inclusive). */
  final case class FExtract(i: Int, j: Int) extends Atom
  /** Tokens counted from the end: i..j positions-from-end, i >= j >= 1
    * (FlashFill's negative positions; handles variable-depth inputs).
    */
  final case class FExtractLast(i: Int, j: Int) extends Atom
  /** First `len` characters of input token i. */
  final case class FTokPrefix(i: Int, len: Int) extends Atom
  /** Last `len` characters of input token i. */
  final case class FTokSuffix(i: Int, len: Int) extends Atom

  final case class FPlan(atoms: Vector[Atom]) {
    def eval(tv: Vector[String]): Option[String] = {
      val sb = new StringBuilder
      var ok = true
      atoms.foreach {
        case FConst(s) => sb.append(s)
        case FExtract(i, j) =>
          if (j > tv.size) ok = false else (i to j).foreach(k => sb.append(tv(k - 1)))
        case FExtractLast(i, j) =>
          val n = tv.size
          if (i > n) ok = false
          else ((n - i + 1) to (n - j + 1)).foreach(k => sb.append(tv(k - 1)))
        case FTokPrefix(i, len) =>
          if (i > tv.size || tv(i - 1).length < len) ok = false else sb.append(tv(i - 1).take(len))
        case FTokSuffix(i, len) =>
          if (i > tv.size || tv(i - 1).length < len) ok = false else sb.append(tv(i - 1).takeRight(len))
      }
      if (ok) Some(sb.toString) else None
    }
    /** Heuristic simplicity score; lower is preferred. Extraction is cheap,
      * alphanumeric constants are expensive (they memorize data).
      */
    def score: Double = atoms.map {
      // Alphanumeric constant characters are charged heavily (5.0 each):
      // they memorize data, and merging them into one long FConst must not
      // become cheaper than extracting (no per-atom amortization).
      case FConst(s)           => 2.0 + s.map(c => if (c.isLetterOrDigit) 5.0 else 0.5).sum
      case FExtract(_, _)      => 2.0
      case FExtractLast(_, _)  => 2.2
      // sub-token atoms score above a one-char constant: picking a lucky
      // prefix/suffix of an unrelated token to produce a constant-looking
      // character is the classic single-example overfit
      case FTokPrefix(_, _)    => 8.0
      case FTokSuffix(_, _)    => 8.0
    }.sum
  }

  /** A branch: inputs whose strategy-1 generalization is `general`,
    * optionally refined to one exact leaf pattern and/or to inputs that
    * contain `keyword`, are rewritten by `plan`.
    */
  final case class FBranch(general: Pattern, exact: Option[Pattern], keyword: Option[String], plan: FPlan) {
    def specificity: Int = (if (exact.isDefined) 2 else 0) + (if (keyword.isDefined) 1 else 0)
    /** Whether the branch takes `s`, whose leaf pattern is `leaf` and whose
      * strategy-1 generalization is `gen`.
      */
    def accepts(s: String, leaf: Pattern, gen: Pattern): Boolean =
      gen == general && exact.forall(_ == leaf) && keyword.forall(s.contains)
  }

  /** A switch over `branches`, the most specific first (a stable sort, so
    * branches of equal specificity keep their order).
    */
  final case class FFProgram(branches: Vector[FBranch]) {
    private[this] val bySpecificity = branches.sortBy(-_.specificity)

    /** Transform `s`; identity when no branch accepts it. */
    def apply(s: String): String = {
      val (leaf, tv) = Tokenizer.tokenizeWithValues(s)
      val gen = Hierarchy.getParent(leaf, Hierarchy.strategy1)
      bySpecificity.iterator
        .filter(_.accepts(s, leaf, gen))
        .map(_.plan.eval(tv))
        .collectFirst { case Some(out) => out }
        .getOrElse(s)
    }
  }
}
