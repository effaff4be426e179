package repro.core

import UniFi.{ConstStr, Extract, Plan, StringExpr}

/** §6.3 Minimum Description Length plan ranking (Eq. 3–6).
  *
  * L(E,T)   = L(E) + L(T|E)
  * L(E)     = |E| · log₂ m          (m = #distinct operation *types* in E)
  * L(T|E)   = Σ log₂ L(fᵢ)          where
  *   L(Extract)      = |P_cand|²    (two token indices into the source)
  *   L(ConstStr(s̃))  = 95^|s̃|       (printable characters)
  *
  * Logs are base 2; log₂ 1 = 0, matching the paper's Example 9 where a
  * single-op plan contributes no model cost.
  *
  * The per-op data length, the model term and the penalty step are defined
  * once below; `length`, `orderPenalty`, `rank` and `best` all call them, so
  * every caller computes bit-identical keys.
  */
object Mdl {

  private def log2(x: Double): Double = math.log(x) / math.log(2)

  /** log₂ 95: the data length of one printable character. */
  private val CharLength = log2(95.0)

  /** log₂ max(1, m) for m = 0, 1, 2 distinct op types. */
  private val TypeLength = Array(log2(1), log2(1), log2(2))

  /** Data length of one Extract over a source of `sourceSize` tokens: log₂ |P|². */
  private def extractLength(sourceSize: Int): Double = log2(math.max(1, sourceSize.toDouble * sourceSize))

  /** Data length of one op, given `extractLength` of the source. */
  private def opLength(op: StringExpr, extract: Double): Double = op match {
    case _: Extract  => extract
    case ConstStr(s) => s.length * CharLength
  }

  /** Model length L(E) of `ops` operations of `types` distinct types (Eq. 4). */
  private def modelLength(ops: Int, types: Int): Double = if (ops == 0) 0.0 else ops * TypeLength(types)

  /** Model description length L(E) (Eq. 4). */
  def modelLength(plan: Plan): Double = {
    val ops = plan.exprs
    modelLength(ops.size,
      (if (ops.exists(_.isInstanceOf[Extract])) 1 else 0) + (if (ops.exists(_.isInstanceOf[ConstStr])) 1 else 0))
  }

  /** Data description length L(T|E) (Eq. 5), given the source pattern size. */
  def dataLength(plan: Plan, sourceSize: Int): Double = {
    val extract = extractLength(sourceSize)
    var sum = 0.0
    plan.exprs.foreach(op => sum += opLength(op, extract))
    sum
  }

  /** Total description length L(E,T) (Eq. 3). */
  def length(plan: Plan, sourceSize: Int): Double =
    modelLength(plan) + dataLength(plan, sourceSize)

  /** What Extract `b` adds to `orderPenalty` after the plan's previous
    * Extract `prev` (`null` when `b` is the first).
    */
  private def penaltyStep(prev: Extract, b: Extract): Int =
    if (prev == null) 0 else if (prev == b) 2 else if (b.i <= prev.j) 1 else 0

  /** Occam-style tie-break among equal-DL plans: penalize plans that reuse
    * the same source range twice (2 per adjacent repeat) or jump backwards
    * in the source (1 per adjacent inversion). Equal-DL alignments are
    * otherwise arbitrary; preferring order-preserving, non-repeating
    * extractions mirrors how humans read transformations and is what makes
    * the default plan usually correct (§6.3, Appendix E).
    */
  def orderPenalty(plan: Plan): Int = {
    var penalty = 0
    var prev: Extract = null
    plan.exprs.foreach {
      case b: Extract =>
        penalty += penaltyStep(prev, b)
        prev = b
      case _: ConstStr => ()
    }
    penalty
  }

  /** Rank plans by DL ascending; ties broken deterministically by op count,
    * then `orderPenalty`, then `Plan.render`. Equal plans keep input order.
    *
    * The definition of §6.3's order: each plan's full key is computed once
    * and a stable sort orders the plans. The program ranks only with
    * `best`, which `MdlSpec` checks against this; it does not call `rank`.
    */
  def rank(plans: Seq[Plan], sourceSize: Int): Vector[Plan] =
    plans.toVector
      .map(p => (p, (length(p, sourceSize), p.exprs.size, orderPenalty(p), p.render)))
      .sortBy(_._2)
      .map(_._1)

  /** The `k` best plans of `source` toward the DAGs of its validated
    * targets, one per Appendix B class: exactly
    * `Dedup.dedup(rank(dags.flatMap(_.allPlans(budget)), source.size), source, k)`.
    * An infeasible DAG has no path and is skipped.
    *
    * One ranked walk instead of enumerate, sort and dedup. Each DAG's paths
    * are walked in `allPlans`' order, up to `budget` per DAG, and each
    * path's `rank` keys but the render are carried along it: the data length
    * summed left to right, the op count, the op types used (the model term
    * is added at the sink) and the penalty via the last Extract. A path is a
    * parent-pointer trie node plus its keys; a binary heap orders paths by
    * those keys, then by position in the union. The paths tied with the
    * head on DL, op count and penalty are popped as one group in position
    * order, built as `Plan`s and stably sorted by `Plan.render`, which is
    * `rank`'s order on them; the group then feeds the dedup until `k`
    * classes are kept.
    */
  def best(dags: Seq[Alignment.Dag], source: Pattern, k: Int, budget: Int = Alignment.PathBudget): Vector[Plan] = {
    val feasible = dags.filter(_.isFeasible)
    // most hierarchy nodes validate against no target
    if (feasible.isEmpty) Vector.empty else new Walk(feasible, source, budget).best(k)
  }

  /** The paths and keys of one `best` call. */
  private final class Walk(dags: Seq[Alignment.Dag], source: Pattern, budget: Int) {

    // Edge ops: an id per (DAG, edge, op), with what a path's key needs.
    private val opsBuf = Vector.newBuilder[StringExpr]
    private var nOps = 0
    /** Per DAG and node: the op ids leaving it, in `allPlans`' order, and their end nodes. */
    private val (outOps, outNext) = dags.map { dag =>
      val ops = new Array[Array[Int]](dag.m)
      val next = new Array[Array[Int]](dag.m)
      for (a <- 0 until dag.m) {
        val ids, ends = Array.newBuilder[Int]
        for (b <- (a + 1) to dag.m; op <- dag.edges.getOrElse((a, b), Vector.empty)) {
          opsBuf += op; ids += nOps; ends += b; nOps += 1
        }
        ops(a) = ids.result(); next(a) = ends.result()
      }
      (ops, next)
    }.unzip
    private val ops = opsBuf.result().toArray
    private val opExtract = ops.map { case e: Extract => e; case _ => null }
    private val opData = { val e = extractLength(source.size); ops.map(opLength(_, e)) }

    // Trie of walked prefixes: node → parent node (-1: the empty prefix), op id.
    private var trieParent, trieOp = new Array[Int](1024)
    private var nTrie = 0
    // Paths: trie node of the whole path, and its keys.
    private var pathEnd, pathSize, pathPenalty = new Array[Int](256)
    private var pathDl = new Array[Double](256)
    private var nPaths = 0

    private def newTrie(parent: Int, op: Int): Int = {
      if (nTrie == trieParent.length) {
        trieParent = java.util.Arrays.copyOf(trieParent, 2 * nTrie)
        trieOp = java.util.Arrays.copyOf(trieOp, 2 * nTrie)
      }
      trieParent(nTrie) = parent; trieOp(nTrie) = op; nTrie += 1
      nTrie - 1
    }

    private def addPath(end: Int, dl: Double, size: Int, penalty: Int): Unit = {
      if (nPaths == pathEnd.length) {
        val n = 2 * nPaths
        pathEnd = java.util.Arrays.copyOf(pathEnd, n); pathSize = java.util.Arrays.copyOf(pathSize, n)
        pathPenalty = java.util.Arrays.copyOf(pathPenalty, n); pathDl = java.util.Arrays.copyOf(pathDl, n)
      }
      pathEnd(nPaths) = end; pathDl(nPaths) = dl; pathSize(nPaths) = size
      pathPenalty(nPaths) = penalty; nPaths += 1
    }

    /** `allPlans`' depth-first walk of DAG `d`, recording up to `budget` paths. */
    private def walk(d: Int): Unit = {
      val m = dags(d).m
      val out = outOps(d); val next = outNext(d)
      var count = 0
      def go(node: Int, trie: Int, data: Double, size: Int, types: Int, penalty: Int, last: Extract): Unit =
        if (node == m) {
          addPath(trie, modelLength(size, Integer.bitCount(types)) + data, size, penalty)
          count += 1
        } else {
          val ids = out(node); val ends = next(node)
          var e = 0
          while (e < ids.length && count < budget) {
            val op = ids(e)
            val x = opExtract(op)
            go(ends(e), newTrie(trie, op), data + opData(op), size + 1, types | (if (x == null) 2 else 1),
              if (x == null) penalty else penalty + penaltyStep(last, x), if (x == null) last else x)
            e += 1
          }
        }
      if (budget > 0) go(0, -1, 0.0, 0, 0, 0, null)
    }

    dags.indices.foreach(walk)

    /** The plan of path `p`. */
    private def plan(p: Int): Plan = {
      val exprs = new Array[StringExpr](pathSize(p))
      var t = pathEnd(p); var i = exprs.length
      while (t >= 0) { i -= 1; exprs(i) = ops(trieOp(t)); t = trieParent(t) }
      Plan(exprs.toVector)
    }

    /** `rank`'s keys but the render: DL, op count, penalty. */
    private def compareKeys(x: Int, y: Int): Int = {
      var c = java.lang.Double.compare(pathDl(x), pathDl(y))
      if (c == 0) c = Integer.compare(pathSize(x), pathSize(y))
      if (c == 0) c = Integer.compare(pathPenalty(x), pathPenalty(y))
      c
    }

    /** Those keys, then position in the union. */
    private def before(x: Int, y: Int): Boolean = {
      val c = compareKeys(x, y)
      c < 0 || c == 0 && x < y
    }

    def best(k: Int): Vector[Plan] = {
      // binary min-heap of path indices
      val heap = Array.range(0, nPaths)
      var n = nPaths
      def siftDown(from: Int): Unit = {
        var i = from
        val p = heap(i)
        var done = false
        while (!done) {
          var c = 2 * i + 1
          if (c >= n) done = true
          else {
            if (c + 1 < n && before(heap(c + 1), heap(c))) c += 1
            if (before(heap(c), p)) { heap(i) = heap(c); i = c } else done = true
          }
        }
        heap(i) = p
      }
      for (i <- n / 2 - 1 to 0 by -1) siftDown(i)

      val seen = new java.util.HashSet[String]
      val kept = Vector.newBuilder[Plan]
      while (n > 0 && seen.size < k) {
        val head = heap(0)
        val group = Vector.newBuilder[Plan]
        while (n > 0 && compareKeys(heap(0), head) == 0) {
          group += plan(heap(0))
          n -= 1
          heap(0) = heap(n)
          if (n > 0) siftDown(0)
        }
        val ranked = group.result().sortBy(_.render).iterator
        while (ranked.hasNext && seen.size < k) {
          val p = ranked.next()
          if (seen.add(Dedup.word(p, source))) kept += p
        }
      }
      kept.result()
    }
  }
}
