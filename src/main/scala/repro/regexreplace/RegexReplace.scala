package repro.regexreplace

import repro.core.UniFi.{Branch, Program}

/** The RegexReplace substrate — the §7 baseline modeled on Trifacta
  * Wrangler's manual Replace feature: an ordered recipe of full-match
  * `Replace(regex, replacement)` operations, first match wins, unmatched
  * strings pass through.
  *
  * An op is kept as a UniFi branch, Match(pattern) → plan over its tokens —
  * the executable ground-truth form; its user-facing regex/replacement
  * strings come from `repro.core.RegexExplain` when needed. The simulated
  * user that authors recipes lives in `repro.sim.RegexReplaceSim`.
  */
object RegexReplace {

  /** An ordered recipe of Replace operations. */
  final case class Recipe(ops: Vector[Branch]) {
    /** The ops as a UniFi program without targets: first match wins. */
    val program: Program = Program(Vector.empty, ops)
    def apply(s: String): String = program.applyFlagged(s)._1
    def prepend(op: Branch): Recipe = Recipe(op +: ops)
    def append(op: Branch): Recipe = Recipe(ops :+ op)
    def size: Int = ops.size
  }

  val empty: Recipe = Recipe(Vector.empty)
}
