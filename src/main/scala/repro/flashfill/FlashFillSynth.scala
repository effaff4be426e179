package repro.flashfill

import repro.core.{Hierarchy, Pattern, Tokenizer}
import FlashFill._

/** Synthesis for the FlashFill baseline.
  *
  * From each example an output-decomposition search enumerates candidate
  * plans (constants / token ranges / sub-token prefixes-suffixes); a
  * branch's plan must be consistent with every example in the branch.
  * When examples sharing a generalized input pattern admit no common plan,
  * the branch is refined — first by exact pattern, then by a learned
  * distinguishing keyword (FlashFill conditionals), finally by memorizing
  * exact inputs (which generalizes to nothing, surfacing as failures on
  * unseen records, as real PBE ambiguity does).
  */
object FlashFillSynth {

  /** The most candidate plans kept per output position. */
  private val PlanCap = 400

  /** Enumerate candidate plans for one example, best-score-first.
    *
    * Beam DP over output positions: `memo(a)` holds the `PlanCap`
    * best-scoring (suffix plans from position a), so the cap prunes by
    * quality rather than discovery order — a DFS-order cap would truncate
    * the space before good plans are ever seen.
    */
  def enumeratePlans(input: String, output: String): Vector[FPlan] = {
    val (_, tv) = Tokenizer.tokenizeWithValues(input)
    val n = output.length
    val memo = new java.util.HashMap[Integer, Vector[(Double, List[Atom])]]()
    def atomsAt(a: Int): Vector[(Atom, Int)] = {
      val out = Vector.newBuilder[(Atom, Int)]
      // token-range extracts (both left-anchored and end-anchored indexing)
      val nTok = tv.size
      for (i <- tv.indices) {
        var j = i
        var end = a
        var good = true
        while (good && j < tv.size) {
          val t = tv(j)
          if (output.startsWith(t, end)) {
            end += t.length
            out += ((FExtract(i + 1, j + 1), end))
            out += ((FExtractLast(nTok - i, nTok - j), end))
            j += 1
          } else good = false
        }
      }
      // sub-token prefixes / suffixes (proper, length >= 1)
      for (i <- tv.indices; t = tv(i) if t.length > 1) {
        for (len <- 1 until t.length) {
          if (output.startsWith(t.take(len), a)) out += ((FTokPrefix(i + 1, len), a + len))
          if (output.startsWith(t.takeRight(len), a)) out += ((FTokSuffix(i + 1, len), a + len))
        }
      }
      // constants: any output substring starting at a, shortest first
      for (b <- (a + 1) to math.min(n, a + 12))
        out += ((FConst(output.substring(a, b)), b))
      out.result().distinct
    }
    def atomScore(atom: Atom): Double = FPlan(Vector(atom)).score
    def go(a: Int): Vector[(Double, List[Atom])] = {
      if (a == n) Vector((0.0, Nil))
      else {
        val cached = memo.get(a)
        if (cached != null) cached
        else {
          val cands = for {
            (atom, b) <- atomsAt(a)
            s = atomScore(atom)
            (restScore, rest) <- go(b)
          } yield (s + restScore, atom :: rest)
          val v = cands.sortBy { case (s, atoms) => (s, atoms.size) }.take(PlanCap)
          memo.put(a, v)
          v
        }
      }
    }
    go(0).map { case (_, atoms) => FPlan(atoms.toVector) }
  }

  private def consistent(plan: FPlan, ex: (String, String)): Boolean = {
    val (_, tv) = Tokenizer.tokenizeWithValues(ex._1)
    plan.eval(tv).contains(ex._2)
  }

  /** Best plan consistent with all `exs`, if any. Candidates come from the
    * first example (and, when that fails, from each subsequent one).
    */
  def commonPlan(exs: Vector[(String, String)]): Option[FPlan] = {
    def search(seedIdx: Int): Option[FPlan] =
      enumeratePlans(exs(seedIdx)._1, exs(seedIdx)._2)
        .find(p => exs.forall(consistent(p, _)))
    (0 until math.min(exs.size, 3)).iterator.flatMap(search(_).iterator).nextOption()
  }

  /** Learn a keyword distinguishing `pos` inputs from `neg` inputs: a
    * token value (or literal char) present in every positive input and in
    * no negative input.
    */
  def distinguishingKeyword(pos: Vector[String], neg: Vector[String]): Option[String] = {
    // Shortest viable token first: a short shared suffix like "jpg"
    // generalizes; a long value like "holiday" memorizes one record.
    val candidates = Tokenizer.tokenizeWithValues(pos.head)._2.distinct
      .filter(_.nonEmpty)
      .sortBy(t => (t.length, t))
    candidates.find(k => pos.forall(_.contains(k)) && !neg.exists(_.contains(k)))
  }

  /** Learn a full program from examples. Deterministic in example order. */
  def learn(examples: Vector[(String, String)]): FFProgram = {
    val byGeneral: Vector[(Pattern, Vector[(String, String)])] =
      examples.groupBy(e => Hierarchy.getParent(Tokenizer.tokenize(e._1), Hierarchy.strategy1)).toVector
        .sortBy(_._1.render)

    val branches = Vector.newBuilder[FBranch]

    byGeneral.foreach { case (gen, exs) =>
      commonPlan(exs) match {
        case Some(plan) =>
          branches += FBranch(gen, None, None, plan)
        case None =>
          // Greedy partition into plan-consistent groups, then try keyword
          // conditionals FIRST (FlashFill's learned predicates generalize
          // across token shapes); fall back to exact-pattern refinement,
          // and memorize what still conflicts.
          var groups = Vector.empty[Vector[(String, String)]]
          exs.foreach { ex =>
            val at = groups.indexWhere(g => commonPlan(g :+ ex).isDefined)
            if (at >= 0) groups = groups.updated(at, groups(at) :+ ex)
            else groups = groups :+ Vector(ex)
          }
          val kws: Vector[Option[String]] = groups.zipWithIndex.map { case (g, gi) =>
            val others = groups.zipWithIndex.collect { case (o, oi) if oi != gi => o }.flatten
            if (others.isEmpty) None else distinguishingKeyword(g.map(_._1), others.map(_._1))
          }
          if (groups.size > 1 && kws.forall(_.isDefined)) {
            groups.zip(kws).foreach { case (g, kw) =>
              branches += FBranch(gen, None, kw, commonPlan(g).get)
            }
          } else {
            val byExact = exs.groupBy(e => Tokenizer.tokenize(e._1)).toVector.sortBy(_._1.render)
            byExact.foreach { case (exact, sub) =>
              val exactOpt = if (byExact.size > 1) Some(exact) else None
              commonPlan(sub) match {
                case Some(plan) =>
                  branches += FBranch(gen, exactOpt, None, plan)
                case None =>
                  // memorize: one branch per example, keyed by the whole input
                  sub.foreach { case (in, out) =>
                    branches += FBranch(gen, exactOpt, Some(in), FPlan(Vector(FConst(out))))
                  }
              }
            }
          }
      }
    }
    FFProgram(branches.result())
  }
}
