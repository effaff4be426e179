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
  private[core] val leafClasses: Array[TokType.Base] = Array(TokType.D, TokType.L, TokType.U)

  /** Index of `c`'s class in `leafClasses`, or -1 for a literal character.
    * The only definition of the ASCII ranges of `<D>`, `<L>` and `<U>`.
    */
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
  def tokenize(s: String): Pattern = scan(s, null)

  /** Tokenize and also return the per-token substrings (used by the
    * FlashFill and RegexReplace baselines; avoids a regex round-trip).
    */
  def tokenizeWithValues(s: String): (Pattern, Vector[String]) = {
    val values = Vector.newBuilder[String]
    (scan(s, values), values.result())
  }

  /** The leaf pattern of `s`; unless `values` is null, also add each
    * token's substring to it.
    */
  private def scan(s: String, values: collection.mutable.Builder[String, Vector[String]]): Pattern = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = s.length
    while (i < n) {
      val cls = classIndex(s.charAt(i))
      var j = i + 1
      if (cls < 0) j = literalEnd(s, i)
      else while (j < n && classIndex(s.charAt(j)) == cls) j += 1
      out += (if (cls < 0) Token.lit(s.substring(i, j)) else Token(leafClasses(cls), j - i))
      if (values != null) values += s.substring(i, j)
      i = j
    }
    Pattern(out.result())
  }
}
