package repro.core

import java.util.Comparator
import scala.jdk.CollectionConverters._
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
  */
object Mdl {

  private def log2(x: Double): Double = math.log(x) / math.log(2)

  /** Model description length L(E) (Eq. 4). */
  def modelLength(plan: Plan): Double = {
    val ops = plan.exprs
    val distinctTypes =
      (if (ops.exists(_.isInstanceOf[Extract])) 1 else 0) + (if (ops.exists(_.isInstanceOf[ConstStr])) 1 else 0)
    if (ops.isEmpty) 0.0 else ops.size * log2(math.max(1, distinctTypes))
  }

  /** Data description length L(T|E) (Eq. 5), given the source pattern size. */
  def dataLength(plan: Plan, sourceSize: Int): Double = {
    var sum = 0.0
    plan.exprs.foreach {
      case _: Extract  => sum += log2(math.max(1, sourceSize.toDouble * sourceSize))
      case ConstStr(s) => sum += s.length * log2(95.0)
    }
    sum
  }

  /** Total description length L(E,T) (Eq. 3). */
  def length(plan: Plan, sourceSize: Int): Double =
    modelLength(plan) + dataLength(plan, sourceSize)

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
        if (prev != null) penalty += (if (prev == b) 2 else if (b.i <= prev.j) 1 else 0)
        prev = b
      case _: ConstStr => ()
    }
    penalty
  }

  /** Rank plans by DL ascending; ties broken deterministically by op count,
    * then `orderPenalty`, then `Plan.render`. Equal plans keep input order.
    *
    * DL and penalty are computed once per plan, not once per comparison.
    * The `render` tie-break compares op ranks instead of whole plan strings:
    * tied plans have equal op counts, so their renders first differ inside
    * the first differing op, and comparing those ops' renders decides. That
    * fails only when one op's render is a proper prefix of another's (e.g.
    * `ConstStr('a')` and `ConstStr('a')b')`); such a call compares `render`.
    */
  def rank(plans: Seq[Plan], sourceSize: Int): Vector[Plan] = {
    val ps = plans.toArray
    val n = ps.length
    val dl = new Array[Double](n)
    val penalty = new Array[Int](n)
    // op instance → rank of its render among the call's distinct renders;
    // plans from one DAG share op instances, so the map stays small
    val opRank = new java.util.IdentityHashMap[StringExpr, Integer]
    for (k <- 0 until n) {
      dl(k) = length(ps(k), sourceSize)
      penalty(k) = orderPenalty(ps(k))
      ps(k).exprs.foreach(op => opRank.put(op, null))
    }
    val renders = opRank.keySet.asScala.map(_.render).toArray.sorted
    val rankOf = renders.zipWithIndex.toMap
    opRank.replaceAll((op, _) => rankOf(op.render))
    val prefixClash = (1 until renders.length).exists(r => renders(r).startsWith(renders(r - 1)))

    // The ranks of each plan's first `packed` ops, packed into one Long,
    // settle most ties without a map lookup.
    val bits = math.max(1, 32 - Integer.numberOfLeadingZeros(renders.length))
    val packed = 63 / bits
    val head = new Array[Long](n)
    for (k <- 0 until n) {
      val ops = ps(k).exprs
      var key = 0L
      for (i <- 0 until math.min(packed, ops.size)) key = key << bits | opRank.get(ops(i)).longValue
      head(k) = key
    }

    def byOps(x: Int, y: Int): Int =
      if (prefixClash) ps(x).render.compareTo(ps(y).render)
      else {
        val a = ps(x).exprs; val b = ps(y).exprs
        var c = java.lang.Long.compare(head(x), head(y))
        var i = packed
        while (c == 0 && i < a.size) { c = Integer.compare(opRank.get(a(i)), opRank.get(b(i))); i += 1 }
        c
      }

    val order: Comparator[Integer] = (x, y) => {
      var c = java.lang.Double.compare(dl(x), dl(y))
      if (c == 0) c = Integer.compare(ps(x).exprs.size, ps(y).exprs.size)
      if (c == 0) c = Integer.compare(penalty(x), penalty(y))
      if (c == 0) c = byOps(x, y)
      c
    }
    val idx = Array.tabulate[Integer](n)(Integer.valueOf)
    java.util.Arrays.sort(idx, order) // stable, as sortBy is
    idx.iterator.map(i => ps(i)).toVector
  }
}
