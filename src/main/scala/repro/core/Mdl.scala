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
  * So a plan's DL depends only on four counts: its ops n, its Extracts e,
  * its ConstStr characters c, and whether both op types occur. It is
  * `[0 < e < n]·n + e·log₂|P|² + c·log₂ 95`. `dl` alone turns counts into
  * a DL, and `length`, `rank` and `best` all call it, so every caller
  * computes bit-identical keys, whatever the order of a plan's ops.
  */
object Mdl {

  private def log2(x: Double): Double = math.log(x) / math.log(2)

  /** log₂ 95: the data length of one printable character. */
  private val CharLength = log2(95.0)

  /** Data length of one Extract over a source of `sourceSize` tokens: log₂ |P|². */
  private def extractLength(sourceSize: Int): Double = log2(math.max(1, sourceSize.toDouble * sourceSize))

  /** Data length L(T|E) (Eq. 5) of `extracts` Extracts and `chars` ConstStr
    * characters. Both factors are ≥ 0, so in doubles too it never falls when
    * either count grows.
    */
  private def data(extracts: Int, chars: Int, extractLength: Double): Double =
    extracts * extractLength + chars * CharLength

  /** L(E,T) (Eq. 3) of a plan of `ops` ops, `extracts` of them Extracts,
    * whose ConstStrs hold `chars` characters. The model length (Eq. 4) is
    * `ops`·log₂ 2 = `ops` when both op types occur and `ops`·log₂ 1 = 0
    * otherwise.
    */
  private def dl(ops: Int, extracts: Int, chars: Int, extractLength: Double): Double =
    (if (0 < extracts && extracts < ops) ops else 0) + data(extracts, chars, extractLength)

  /** Total description length L(E,T) (Eq. 3). */
  def length(plan: Plan, sourceSize: Int): Double = {
    var extracts, chars = 0
    plan.exprs.foreach {
      case _: Extract  => extracts += 1
      case ConstStr(s) => chars += s.length
    }
    dl(plan.exprs.size, extracts, chars, extractLength(sourceSize))
  }

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
    * A best-first search instead of enumerate, sort and dedup. A partial
    * path carries `rank`'s keys but the render: its op, Extract and
    * character counts and the penalty via the last Extract. It is ordered
    * by a lower bound on the DL of its completions: the data length of its
    * counts plus the least Extract and character counts on to the sink,
    * each taken alone. A heap orders partial and complete paths by that
    * bound or the DL, partial paths first, then by op count, penalty and
    * position in the union; popping a partial path pushes its children. A
    * child whose first completion lies past the first `budget` paths of its
    * DAG in `allPlans`' order is never made. When a complete path heads the
    * heap, every path that ties with it on DL, op count and penalty is
    * complete and in the heap: that group is popped in position order,
    * stably sorted by render, which is `rank`'s order on it, and feeds the
    * dedup until `k` classes are kept, or every class of the DAGs when they
    * hold fewer: the backward pass counts each node's distinct canonical
    * words on to the sink, up to more than `k`. Only a kept path becomes a
    * `Plan`.
    */
  def best(dags: Seq[Alignment.Dag], source: Pattern, k: Int, budget: Int = Alignment.PathBudget): Vector[Plan] = {
    val feasible = dags.filter(_.isFeasible)
    // most hierarchy nodes validate against no target
    if (feasible.isEmpty || budget <= 0) Vector.empty else new Search(feasible, source, k, budget).best
  }

  /** A path from the source node of DAG `dag` to `node`, as a trie node: its
    * last op id `op` after `parent` (the empty path: -1 after `null`).
    * `first` is the index in `allPlans`' order of its first completion;
    * `key` is its DL when complete, else a lower bound on its completions'.
    */
  private final class Path(val parent: Path, val op: Int, val dag: Int, val node: Int, val first: Int,
      val size: Int, val extracts: Int, val chars: Int, val penalty: Int, val last: Extract,
      val complete: Boolean, val key: Double)

  /** Key or bound, partial paths first, op count, penalty, position in the union. */
  private val order: java.util.Comparator[Path] = (x, y) => {
    var c = java.lang.Double.compare(x.key, y.key)
    if (c == 0) c = java.lang.Boolean.compare(x.complete, y.complete)
    if (c == 0) c = Integer.compare(x.size, y.size)
    if (c == 0) c = Integer.compare(x.penalty, y.penalty)
    if (c == 0) c = Integer.compare(x.dag, y.dag)
    if (c == 0) c = Integer.compare(x.first, y.first)
    c
  }

  /** The DAGs and paths of one `best` call. */
  private final class Search(dags: Seq[Alignment.Dag], source: Pattern, k: Int, budget: Int) {

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
    private val opChars = ops.map { case ConstStr(s) => s.length; case _ => 0 }
    private val extract = extractLength(source.size)
    private val pieces = new Array[String](ops.length)

    /** The canonical word piece (`Dedup.piece`) of op `op`, made when first needed. */
    private def piece(op: Int): String = {
      if (pieces(op) == null) pieces(op) = Dedup.piece(ops(op), source)
      pieces(op)
    }

    /** Per DAG and node, from the backward pass below: the least Extract
      * count and the least character count of a path on to the sink, each
      * taken alone, and the number of such paths, saturated at `budget`. A
      * node with no such path is never reached and keeps `Int.MaxValue`
      * counts.
      */
    private val minE, minC, count = new Array[Array[Int]](dags.size)

    /** How many classes `best` keeps: `k`, or the number of canonical words
      * (`Dedup.word`) of every path of every DAG when that is smaller. The
      * first path popped with a word is its class's best path, so once this
      * many words are kept no path left can add a class. The budgeted
      * paths' words are a subset of all words, so under the budget too the
      * stop comes only once no path is left with a new word.
      *
      * The same backward pass collects each node's distinct words on to the
      * sink, or `null` once there are more than `k`, and their union over
      * the DAGs' source nodes, or `null` once it passes `k`; after that no
      * DAG's words are collected.
      */
    private val classes = {
      var union = new java.util.HashSet[String]
      for (d <- dags.indices) {
        val m = dags(d).m
        val leastE, leastC = Array.fill(m + 1)(Int.MaxValue)
        val paths = new Array[Int](m + 1)
        val words = new Array[Array[String]](m + 1)
        leastE(m) = 0; leastC(m) = 0; paths(m) = 1; words(m) = Array("")
        for (a <- m - 1 to 0 by -1) {
          val ids = outOps(d)(a); val ends = outNext(d)(a)
          var n = 0L
          val w = new java.util.HashSet[String]
          // prefixing one piece is injective: past k words at a successor, past k here
          var saturated = union == null
          var e = 0
          while (e < ids.length) {
            val b = ends(e)
            if (paths(b) > 0) {
              leastE(a) = math.min(leastE(a), (if (opExtract(ids(e)) == null) 0 else 1) + leastE(b))
              leastC(a) = math.min(leastC(a), opChars(ids(e)) + leastC(b))
              n = math.min(budget.toLong, n + paths(b))
              saturated ||= words(b) == null
              var i = 0
              while (!saturated && i < words(b).length) {
                w.add(piece(ids(e)) + words(b)(i))
                saturated = w.size > k
                i += 1
              }
            }
            e += 1
          }
          paths(a) = n.toInt
          if (!saturated) words(a) = w.toArray(new Array[String](0))
        }
        minE(d) = leastE; minC(d) = leastC; count(d) = paths
        if (union != null) {
          if (words(0) == null) union = null
          else {
            words(0).foreach(union.add)
            if (union.size > k) union = null
          }
        }
      }
      if (union == null) k else math.min(k, union.size)
    }

    /** A path to `node` of DAG `dag` with the given keys, first completed at `first`. */
    private def path(parent: Path, op: Int, dag: Int, node: Int, first: Int,
        size: Int, extracts: Int, chars: Int, penalty: Int, last: Extract): Path = {
      val complete = node == dags(dag).m
      // a completion has at least these counts, `data` never falls as a
      // count grows and the model term is ≥ 0: a lower bound bit for bit
      val key =
        if (complete) dl(size, extracts, chars, extract)
        else data(extracts + minE(dag)(node), chars + minC(dag)(node), extract)
      new Path(parent, op, dag, node, first, size, extracts, chars, penalty, last, complete, key)
    }

    /** Push the children of `p` that reach the sink within the budget. */
    private def expand(p: Path, heap: java.util.PriorityQueue[Path]): Unit = {
      val ids = outOps(p.dag)(p.node); val ends = outNext(p.dag)(p.node); val paths = count(p.dag)
      var first = p.first.toLong
      var e = 0
      while (e < ids.length && first < budget) {
        val op = ids(e); val end = ends(e)
        if (paths(end) > 0) {
          val x = opExtract(op)
          heap.add(
            if (x == null) path(p, op, p.dag, end, first.toInt, p.size + 1, p.extracts, p.chars + opChars(op), p.penalty, p.last)
            else path(p, op, p.dag, end, first.toInt, p.size + 1, p.extracts + 1, p.chars, p.penalty + penaltyStep(p.last, x), x))
          first += paths(end)
        }
        e += 1
      }
    }

    /** The op ids of `p`, first to last. */
    private def opIds(p: Path): Array[Int] = {
      val ids = new Array[Int](p.size)
      var t = p
      for (i <- ids.indices.reverse) { ids(i) = t.op; t = t.parent }
      ids
    }

    /** `Plan.render` of `p`'s plan. */
    private def render(p: Path): String = {
      val r = new java.lang.StringBuilder("Concat(")
      val ids = opIds(p)
      for (i <- ids.indices) { if (i > 0) r.append(", "); r.append(ops(ids(i)).render) }
      r.append(')').toString
    }

    /** `Dedup.word` of `p`'s plan. */
    private def word(p: Path): String = {
      val w = new java.lang.StringBuilder
      opIds(p).foreach(o => w.append(piece(o)))
      w.toString
    }

    /** Ties with complete path `head` on every key but the render. */
    private def tied(p: Path, head: Path): Boolean =
      p.complete && p.key == head.key && p.size == head.size && p.penalty == head.penalty

    def best: Vector[Plan] = {
      val heap = new java.util.PriorityQueue[Path](order)
      dags.indices.foreach(d => heap.add(path(null, -1, d, 0, 0, 0, 0, 0, 0, null)))
      val seen = new java.util.HashSet[String]
      val kept = Vector.newBuilder[Plan]
      while (!heap.isEmpty && seen.size < classes) {
        val head = heap.poll()
        if (!head.complete) expand(head, heap)
        else {
          val group = Vector.newBuilder[Path]
          group += head
          while (!heap.isEmpty && tied(heap.peek(), head)) group += heap.poll()
          val paths = group.result()
          val ranked = if (paths.size == 1) paths else paths.map(p => (render(p), p)).sortBy(_._1).map(_._2)
          val it = ranked.iterator
          while (it.hasNext && seen.size < classes) {
            val p = it.next()
            if (seen.add(word(p))) kept += Plan(opIds(p).iterator.map(ops(_)).toVector)
          }
        }
      }
      kept.result()
    }
  }
}
