package repro.core

import java.util.regex.{Matcher, Pattern => JPattern}

/** Token classes from Table 2 of the paper, plus literal (constant) tokens.
  *
  * Base classes: digit `<D>`, lower `<L>`, upper `<U>`, alpha `<A>`,
  * alpha-numeric `<AN>`. `<A>` and `<AN>` never appear in leaf patterns
  * (tokenization always picks the most precise class); they are introduced
  * by the generalization strategies of §4.2. Because strategy 3 folds the
  * literals `-` and `_` into `<AN>`, the matching regex for `<AN>` includes
  * those two characters.
  */
sealed trait TokType {
  /** Character-class regex (no quantifier) for this token type. */
  def charRegex: String
  /** Short display name used in rendered patterns. */
  def display: String
}

object TokType {
  case object D extends TokType { val charRegex = "[0-9]";         val display = "digit" }
  case object L extends TokType { val charRegex = "[a-z]";         val display = "lower" }
  case object U extends TokType { val charRegex = "[A-Z]";         val display = "upper" }
  case object A extends TokType { val charRegex = "[A-Za-z]";      val display = "alpha" }
  case object AN extends TokType { val charRegex = "[A-Za-z0-9_-]"; val display = "alnum" }

  /** A constant-valued token: a single non-alphanumeric character from
    * tokenization, or a multi-character constant discovered statistically
    * (§4.1 "Find Constant Tokens", e.g. `'Dr.'`).
    */
  final case class Lit(value: String) extends TokType {
    require(value.nonEmpty, "literal token must be non-empty")
    val charRegex: String = JPattern.quote(value)
    val display: String = s"'${value}'"
  }

  /** All base (non-literal) classes, in the order used by `validate`. */
  val baseClasses: List[TokType] = List(D, L, U, A, AN)

  /** Does character `c` belong to base class `t`? (ASCII semantics, matching
    * the regexes of Table 2.)
    */
  def matches(t: TokType, c: Char): Boolean = t match {
    case D      => c >= '0' && c <= '9'
    case L      => c >= 'a' && c <= 'z'
    case U      => c >= 'A' && c <= 'Z'
    case A      => matches(L, c) || matches(U, c)
    case AN     => matches(A, c) || matches(D, c) || c == '-' || c == '_'
    case Lit(v) => v.length == 1 && v.charAt(0) == c
  }
}

/** A token quantifier: a natural number, or `+` ("at least once"). */
sealed trait Quant {
  def display: String
  /** Quantifier value used in frequency counts: `+` counts as 1 (Eq. 1). */
  def freqValue: Int
}

object Quant {
  final case class Num(n: Int) extends Quant {
    require(n >= 1, s"quantifier must be >= 1, got $n")
    def display = n.toString
    def freqValue: Int = n
  }
  case object Plus extends Quant {
    def display = "+"
    def freqValue: Int = 1
  }

  /** Quantifier of the merge of two adjacent same-class tokens. */
  def merge(a: Quant, b: Quant): Quant = (a, b) match {
    case (Num(x), Num(y)) => Num(x + y)
    case _                => Plus
  }
}

/** One token of a pattern: a type plus a quantifier.
  *
  * Literal tokens always carry quantifier 1 (their value may span several
  * characters after constant merging).
  */
final case class Token(tpe: TokType, quant: Quant) {
  def isLiteral: Boolean = tpe.isInstanceOf[TokType.Lit]
  def literalValue: Option[String] = tpe match {
    case TokType.Lit(v) => Some(v)
    case _              => None
  }
  /** Regex fragment (unanchored, ungrouped) matching this token. */
  def regex: String = tpe match {
    case TokType.Lit(_) => tpe.charRegex // quantifier is implicitly 1
    case _ =>
      quant match {
        case Quant.Num(1) => tpe.charRegex
        case Quant.Num(n) => s"${tpe.charRegex}{$n}"
        case Quant.Plus   => s"${tpe.charRegex}+"
      }
  }
  /** Paper-style rendering, e.g. `<D>3`, `<L>+`, `'@'`. */
  def render: String = tpe match {
    case TokType.Lit(v) => s"'$v'"
    case _ =>
      val name = tpe match {
        case TokType.D  => "D"
        case TokType.L  => "L"
        case TokType.U  => "U"
        case TokType.A  => "A"
        case TokType.AN => "AN"
        case _          => "?"
      }
      s"<$name>${quant.display}"
  }
  /** Wrangler-style natural-language rendering, e.g. `{digit}{3}`. */
  def renderNatural: String = tpe match {
    case TokType.Lit(v) => s"'$v'"
    case _ =>
      quant match {
        case Quant.Num(1) => s"{${tpe.display}}"
        case Quant.Num(n) => s"{${tpe.display}}{$n}"
        case Quant.Plus   => s"{${tpe.display}}+"
      }
  }
}

object Token {
  def lit(v: String): Token = Token(TokType.Lit(v), Quant.Num(1))
  def apply(tpe: TokType, n: Int): Token = Token(tpe, Quant.Num(n))
}

/** A data pattern: a sequence of tokens (Definition in §3.1).
  *
  * Patterns are values — equality/hashing are structural, so a pattern can
  * key a cluster both driver-side and in Spark groupBy (via `render`).
  */
final case class Pattern(tokens: Vector[Token]) {
  def size: Int = tokens.size
  def isEmpty: Boolean = tokens.isEmpty

  /** Paper-style rendering used as the canonical cluster key. */
  def render: String = tokens.map(_.render).mkString("")

  /** Wrangler-like natural-language regexp shown to end users (§3.1). */
  def renderNatural: String = tokens.map(_.renderNatural).mkString("")

  /** Anchored Java regex with one capturing group per token. The anchors are
    * `\A` and `\z`, the bounds of the whole text in Java and RE2 alike; Java's
    * `$` would also match just before a final line terminator.
    */
  lazy val groupedRegex: String = tokens.map(t => s"(${t.regex})").mkString("\\A", "", "\\z")

  @transient private lazy val compiled: JPattern = JPattern.compile(groupedRegex)

  /** Does `s` exactly match this pattern? */
  def matches(s: String): Boolean = compiled.matcher(s).matches()

  /** A matcher of the anchored regex over `s`; group `k` is token `k`. */
  private[core] def matcher(s: String): Matcher = compiled.matcher(s)

  /** Split `s` into per-token substrings, if it matches this pattern. */
  def split(s: String): Option[Vector[String]] = {
    val m = matcher(s)
    if (!m.matches()) None
    else Some((1 to tokens.size).map(m.group).toVector)
  }

  /** Whether all strings of one leaf pattern get the same answer from
    * `matches` and the same token offsets from `split`: no literal holds an
    * ASCII letter or digit. Such strings differ only inside class runs, where
    * every Table 2 class and every quoted non-alphanumeric literal tests
    * each character alike; an alphanumeric constant such as `'CPT'` tests
    * the characters themselves.
    */
  def decidedByLeafKey: Boolean =
    tokens.forall(_.literalValue.forall(_.forall(Tokenizer.classIndex(_) < 0)))

  /** This pattern with every literal that holds a letter or digit replaced
    * by its own leaf tokens (`'CPT'` by `<U>3`, `'Dr.'` by `<U>1<L>1'.'`):
    * decided by the leaf pattern, and matched by every string this pattern
    * matches.
    */
  def relaxed: Pattern =
    if (decidedByLeafKey) this
    else Pattern(tokens.flatMap(t => t.literalValue.fold(Vector(t))(Tokenizer.tokenize(_).tokens)))

  /** Merge adjacent tokens of the same base class (post-generalization).
    * Adjacent identical-value literals are NOT merged here (tokenization
    * keeps each non-alphanumeric character as its own token); constant
    * discovery merges literals explicitly.
    */
  def mergeAdjacent: Pattern = {
    val out = Vector.newBuilder[Token]
    var cur: Option[Token] = None
    tokens.foreach { t =>
      cur match {
        case Some(c) if !c.isLiteral && !t.isLiteral && c.tpe == t.tpe =>
          cur = Some(Token(c.tpe, Quant.merge(c.quant, t.quant)))
        case Some(c) =>
          out += c; cur = Some(t)
        case None =>
          cur = Some(t)
      }
    }
    cur.foreach(out += _)
    Pattern(out.result())
  }

  /** `render`, except that the empty pattern, which renders as nothing,
    * prints as `Pattern.empty`.
    */
  override def toString: String = if (isEmpty) "Pattern.empty" else render
}

object Pattern {
  val empty: Pattern = Pattern(Vector.empty)
  def of(tokens: Token*): Pattern = Pattern(tokens.toVector)
}
