package repro.core

/** §4.1 tokenization.
  *
  * Rules (verbatim from the paper):
  *   - each non-alphanumeric character is an individual literal token (a
  *     character outside the BMP, a UTF-16 surrogate pair, is one token, so
  *     that the token's quoted regex matches it: Java regex matches by code
  *     point);
  *   - alphanumeric runs use the most precise base type (`<D>`, `<L>`,
  *     `<U>` — never `<A>`/`<AN>` at this stage);
  *   - quantifiers are natural numbers (run lengths).
  *
  * Example: `"Bob123@gmail.com"` →
  * `[<U>1, <L>2, <D>3, '@', <L>5, '.', <L>3]`.
  */
object Tokenizer {

  /** The classes of leaf class runs, indexed by `classIndex`. */
  private[core] val leafClasses: Array[TokType] = Array(TokType.D, TokType.L, TokType.U)

  /** Index of `c`'s class in `leafClasses`, or -1 for a literal character. */
  private[core] def classIndex(c: Char): Int =
    if (c >= '0' && c <= '9') 0
    else if (c >= 'a' && c <= 'z') 1
    else if (c >= 'A' && c <= 'Z') 2
    else -1

  /** End of the literal token that starts at `i` in `s`: past a surrogate
    * pair, else past one character.
    */
  private[core] def literalEnd(s: String, i: Int): Int =
    if (Character.isHighSurrogate(s.charAt(i)) && i + 1 < s.length && Character.isLowSurrogate(s.charAt(i + 1))) i + 2
    else i + 1

  /** Tokenize a string into its leaf pattern. The empty string maps to the
    * empty pattern (a cluster of its own).
    */
  def tokenize(s: String): Pattern = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = s.length
    while (i < n) {
      val c = s.charAt(i)
      val cls = classIndex(c)
      if (cls < 0) {
        val end = literalEnd(s, i)
        out += Token.lit(if (end == i + 1) c.toString else s.substring(i, end))
        i = end
      } else {
        var j = i + 1
        while (j < n && classIndex(s.charAt(j)) == cls) j += 1
        out += Token(leafClasses(cls), Quant.Num(j - i))
        i = j
      }
    }
    Pattern(out.result())
  }

  /** Tokenize and also return the per-token substrings (used by constant
    * discovery and by grounded plan checking; avoids a regex round-trip).
    */
  def tokenizeWithValues(s: String): (Pattern, Vector[String]) = {
    val p = tokenize(s)
    var idx = 0
    val vals = p.tokens.map { t =>
      val len = t.tpe match {
        case TokType.Lit(v) => v.length
        case _ => t.quant match {
          case Quant.Num(n) => n
          case Quant.Plus   => sys.error("leaf tokens never carry '+'")
        }
      }
      val v = s.substring(idx, idx + len)
      idx += len
      v
    }
    (p, vals)
  }
}
