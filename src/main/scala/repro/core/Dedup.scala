package repro.core

import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** Appendix B: equivalent-plan detection and deduplication.
  *
  * Two plans are equivalent (Definition 6.2) iff, for the given source
  * pattern, they always yield the same output. A plan's output is the
  * concatenation of its ops' pieces, so it is fixed by its canonical word
  * over the source: every `Extract(i,j)` atomized into tokens i..j, an
  * extracted literal token written as its characters, any other extracted
  * token as its index, and a `ConstStr` as its characters. Two plans are
  * equivalent iff their words are equal: a class token's value varies
  * independently of every other token, so no two different words agree on
  * every string of the source.
  */
object Dedup {

  /** Escape char of a word: `Esc Esc` is a literal `Esc`; `Esc`, then
    * `(index >>> 16) + 1` (never `Esc`) and `index & 0xFFFF` is a token index.
    */
  private final val Esc = '\u0000'

  /** The piece of the canonical word over `source` that `op` writes. */
  private[core] def piece(op: StringExpr, source: Pattern): String = {
    val w = new java.lang.StringBuilder
    def chars(s: String): Unit =
      s.foreach(c => if (c == Esc) w.append(Esc).append(Esc) else w.append(c))
    op match {
      case ConstStr(s) => chars(s)
      case Extract(i, j) =>
        for (k <- i to j) source.tokens(k - 1).literalValue match {
          case Some(v) => chars(v)
          case None    => w.append(Esc).append(((k >>> 16) + 1).toChar).append((k & 0xFFFF).toChar)
        }
    }
    w.toString
  }

  /** The canonical word of `plan` over `source`: its ops' pieces in order. */
  private[core] def word(plan: Plan, source: Pattern): String = {
    val w = new java.lang.StringBuilder
    plan.exprs.foreach(op => w.append(piece(op, source)))
    w.toString
  }

  /** Keep only the first (i.e. simplest, given DL-sorted input) plan of
    * each equivalence class, preserving order; stops after `maxKeep` kept
    * plans.
    */
  def dedup(ranked: Seq[Plan], source: Pattern, maxKeep: Int = Int.MaxValue): Vector[Plan] = {
    val seen = new java.util.HashSet[String]
    val kept = Vector.newBuilder[Plan]
    val it = ranked.iterator
    while (it.hasNext && seen.size < maxKeep) {
      val p = it.next()
      if (seen.add(word(p, source))) kept += p
    }
    kept.result()
  }
}
