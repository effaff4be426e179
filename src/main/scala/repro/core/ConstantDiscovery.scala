package repro.core

/** §4.1 "Find Constant Tokens".
  *
  * Within a pattern cluster, a token position whose underlying substring is
  * identical across every member string is re-labeled as a literal token
  * with that value (e.g. `<U>3` → `'CPT'`). The statistic behind it — per
  * leaf cluster and class run, "still constant?" — is kept by
  * `ClusterProfile`, whose one-pass fold serves both the driver path
  * (`Synthesizer.leafClusters`) and the Spark path
  * (`repro.dist.PatternClusteringSpark`).
  *
  * Adjacent literals are deliberately NOT merged into one token (the
  * paper's `'Dr.'` display): merging `'CPT'` with a neighboring `'-'`
  * would destroy the token boundary that alignment needs to extract the
  * `'CPT'` part into a `<U>+` target token. `mergeLiterals` remains
  * available for display purposes.
  *
  * A minimum cluster support (default 2) prevents a singleton cluster from
  * degenerating into one all-literal pattern.
  */
object ConstantDiscovery {

  /** Constant discovery over one cluster's strings, whose common leaf
    * pattern is `pattern`; any other `pattern` is returned unchanged.
    */
  def discoverLocal(pattern: Pattern, strings: Seq[String], minSupport: Int = 2): Pattern = {
    val profile = ClusterProfile.of(strings)
    if (profile.leaves.keySet != Set(pattern)) pattern
    else profile.clusters(minSupport).head._1
  }

  /** Merge runs of adjacent literal tokens into a single literal token. */
  def mergeLiterals(p: Pattern): Pattern = {
    val out = Vector.newBuilder[Token]
    var buf = new StringBuilder
    def flush(): Unit = if (buf.nonEmpty) { out += Token.lit(buf.toString); buf = new StringBuilder }
    p.tokens.foreach {
      case Token(TokType.Lit(v), _) => buf.append(v)
      case t                        => flush(); out += t
    }
    flush()
    Pattern(out.result())
  }
}
