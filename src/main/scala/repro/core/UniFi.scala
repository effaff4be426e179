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
    lazy val render: String = s"ConstStr('$s')"
  }
  /** Extract source tokens i..j (1-based, inclusive). */
  final case class Extract(i: Int, j: Int) extends StringExpr {
    require(i >= 1 && j >= i, s"bad extract range [$i,$j]")
    lazy val render: String = if (i == j) s"Extract($i)" else s"Extract($i,$j)"
  }
  object Extract { def apply(i: Int): Extract = Extract(i, i) }

  /** An atomic transformation plan (Definition 5.1): Concat(f₁…fₙ). */
  final case class Plan(exprs: Vector[StringExpr]) {
    lazy val render: String = exprs.map(_.render).mkString("Concat(", ", ", ")")

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

    /** Evaluate over `s` at token bounds: token `k` spans `bounds(k - 1)` to `bounds(k)`. */
    private[repro] def evalAt(s: String, bounds: Array[Int]): String = {
      val out = new java.lang.StringBuilder(s.length + 16)
      var k = 0
      while (k < exprs.length) {
        exprs(k) match {
          case ConstStr(c)   => out.append(c)
          case Extract(i, j) => out.append(s, bounds(i - 1), bounds(j))
        }
        k += 1
      }
      out.toString
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

    @transient private[core] lazy val dispatcher = new Dispatcher(targets, branches, MemoCap)

    /** Transform `s`; `None` means "no branch matched — flag for review". */
    def apply(s: String): Option[String] = Option(dispatcher.output(s))

    /** Transform with the flag surfaced: (output, matchedSomeBranch). */
    def applyFlagged(s: String): (String, Boolean) = {
      val out = dispatcher.output(s)
      if (out == null) (s, false) else (out, true)
    }

    /** Where `s` goes: the branch `apply` runs on it, with its token bounds. */
    private[repro] def branchOf(s: String): Decision = dispatcher(s)

    def render: String =
      branches.map(b => s"Match(${b.pattern.render}) => ${b.plan.render}")
        .mkString("Switch(\n  ", ",\n  ", "\n)")
  }

  /** Most leaf keys one program remembers. */
  private[core] val MemoCap = 1 << 16

  /** The key buffer of the calling thread. */
  private val keyBuf = ThreadLocal.withInitial[java.lang.StringBuilder](() => new java.lang.StringBuilder)

  /** `Program` application, dispatched on the input's leaf key
    * (`ClusterProfile.key`).
    *
    * The program's patterns are tried in order, targets first, then
    * branches. On the first string with a given key the regexes decide each
    * pattern, and the outcome is remembered for the key: a pattern decided by
    * the leaf pattern (`Pattern.decidedByLeafKey`) matches every string of
    * the key or none, with the same token offsets. A pattern that is not is
    * skipped for the key when its `relaxed` form does not match, since then
    * it matches no string of the key; otherwise its regex runs on every
    * string of the key. Later strings cost a key scan, a hash lookup, those
    * regexes, and in `output` one `append` per plan operation (`Plan.evalAt`).
    *
    * A branch whose plan extracts past its pattern never matches.
    * Safe to call from several threads. The memo stops growing at `cap` keys
    * (threads that pass the check at once may each add one more).
    */
  private[core] final class Dispatcher(targets: Vector[Pattern], branches: Vector[Branch], cap: Int) {
    private val patterns = (targets ++ branches.map(_.pattern)).toArray
    private val decided = patterns.map(_.decidedByLeafKey)
    private val relaxed = patterns.map(_.relaxed)
    private val nTargets = targets.size
    private val usable = Array.tabulate(patterns.length) { p =>
      p < nTargets || branches(p - nTargets).plan.exprs.forall {
        case Extract(_, j) => j <= patterns(p).size
        case _             => true
      }
    }
    private val memo = new java.util.concurrent.ConcurrentHashMap[String, Route]

    /** The decision for `s`. */
    def apply(s: String): Decision = {
      val buf = keyBuf.get
      buf.setLength(0)
      ClusterProfile.encode(s, buf, null)
      val key = buf.toString
      var route = memo.get(key)
      if (route == null) {
        route = routeOf(s)
        if (memo.size < cap) memo.putIfAbsent(key, route)
      }
      var k = 0
      while (k < route.tries.length) {
        val d = decide(route.tries(k), s)
        if (d != null) return d
        k += 1
      }
      route.outcome
    }

    /** The output for `s`, or null if no pattern matches it. */
    def output(s: String): String = {
      val d = apply(s)
      if (d.branch >= 0) branches(d.branch).plan.evalAt(s, d.bounds)
      else if (d eq Target) s
      else null
    }

    /** Number of keys remembered. */
    private[core] def memoSize: Int = memo.size

    private def routeOf(s: String): Route = {
      val tries = Array.newBuilder[Int]
      var p = 0
      while (p < patterns.length) {
        if (usable(p)) {
          if (!decided(p)) { if (relaxed(p).matches(s)) tries += p }
          else {
            val d = decide(p, s)
            if (d != null) return new Route(tries.result(), d)
          }
        }
        p += 1
      }
      new Route(tries.result(), NoMatch)
    }

    /** Pattern `p`'s decision for `s`, or null if it does not match `s`. */
    private def decide(p: Int, s: String): Decision =
      if (p < nTargets) { if (patterns(p).matches(s)) Target else null }
      else {
        val m = patterns(p).matcher(s)
        if (!m.matches()) null
        else {
          val b = new Array[Int](m.groupCount + 1)
          var g = 1
          while (g < b.length) { b(g) = m.end(g); g += 1 }
          new Decision(p - nTargets, b)
        }
      }
  }

  /** Where a program sends one string: `branch` is the index of the branch
    * whose pattern matches it first, and token `k` of that match spans
    * `bounds(k - 1)` to `bounds(k)`. `branch` is -1 when a target matches
    * first (`Target`) or nothing matches (`NoMatch`).
    */
  private[repro] final class Decision(val branch: Int, val bounds: Array[Int])
  private val Target = new Decision(-1, null)
  private val NoMatch = new Decision(-1, null)

  /** What a key's strings go through: the regexes of `tries` (pattern
    * indices, targets first) in order, then the decision `outcome`.
    */
  private final class Route(val tries: Array[Int], val outcome: Decision)
}
