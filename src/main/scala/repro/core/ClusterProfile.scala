package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.util.{Arrays, HashMap => JHashMap}

/** One-pass, mergeable summary of a string column's leaf clusters (§4).
  *
  * Per leaf pattern it keeps the number of strings, the least string (in
  * `String.compareTo` order), whether every string matched one of the
  * profile's `targets` and, per class run, whether every string so far held
  * the same substring there — all that constant discovery (§4.1), the cluster
  * listing (Fig. 3) and the output-pattern listing (Fig. 2) need. Null
  * strings are only counted. It is an incremental structure summary in the
  * spirit of Potter's Wheel (Raman & Hellerstein, VLDB 2001) and FlashProfile
  * (Padhi et al., OOPSLA 2018).
  *
  * A string is keyed by a compact, injective encoding of its leaf pattern
  * (`ClusterProfile.key`), so a record costs one scan and one hash lookup;
  * a `Pattern` is built once per cluster, by `clusters`/`leaves`. A leaf
  * pattern fixes every token's offset, so a record checks the runs still
  * constant with `String.regionMatches` against the cluster's least string
  * and allocates no substrings. When every target is decided by the leaf
  * pattern (`Pattern.decidedByLeafKey`), only a cluster's first string is
  * tested against the targets.
  *
  * `add` and `merge` update this profile in place and return it. `merge` is
  * commutative and associative, so partitions can be folded independently
  * and merged in any order (see `repro.dist.PatternClusteringSpark`); both
  * sides must have the same `targets`.
  */
final class ClusterProfile private (private val targets: Seq[Pattern],
                                    private val entries: JHashMap[String, ClusterProfile.Entry])
    extends Serializable {
  import ClusterProfile._

  private var nulls = 0L

  /** Whether every string of a cluster is on target iff its first one is. */
  private[this] val targetsByKey = targets.forall(_.decidedByLeafKey)

  // Per-record buffers: the key being built and the class runs' offsets.
  @transient private[this] var keyBuf: java.lang.StringBuilder = _
  @transient private[this] var spans: Array[Int] = _

  /** Count `s` into its leaf cluster, or into the null count. */
  def add(s: String): ClusterProfile = {
    if (s == null) nulls += 1
    else {
      if (keyBuf == null) { keyBuf = new java.lang.StringBuilder; spans = new Array[Int](32) }
      if (spans.length < 2 * s.length) spans = new Array[Int](2 * s.length)
      keyBuf.setLength(0)
      val runs = encode(s, keyBuf, spans)
      val key = keyBuf.toString
      val e = entries.get(key)
      if (e == null) entries.put(key, Entry(s, Arrays.copyOf(spans, 2 * runs), onTarget(s)))
      else e.add(s, if (targetsByKey) e.onTarget else onTarget(s))
    }
    this
  }

  private def onTarget(s: String): Boolean = targets.exists(_.matches(s))

  /** Fold `that` into this profile; `that` is left unchanged. */
  def merge(that: ClusterProfile): ClusterProfile = {
    nulls += that.nulls
    that.entries.forEach { (key, e) =>
      val mine = entries.get(key)
      if (mine == null) entries.put(key, e.copy) else mine.merge(e)
    }
    this
  }

  /** Leaf pattern → string count, without constant discovery. */
  def leaves: Map[Pattern, Long] = tally((key, _) => leafPattern(key))

  /** Leaf clusters with constant discovery: in a cluster of at least
    * `MinSupport` strings, a class run that holds the same substring in
    * every string becomes that literal. Clusters whose refined patterns
    * coincide are merged, their counts summed.
    */
  def clusters(): Map[Pattern, Long] =
    tally((key, e) => if (e.count >= MinSupport) e.refined(key) else leafPattern(key))

  /** The pattern cluster hierarchy (Algorithm 1) over `clusters()`, under
    * one root.
    */
  def hierarchy(): Hierarchy.PNode = Hierarchy.root(Hierarchy.build(clusters().toSeq))

  private def tally(pattern: (String, Entry) => Pattern): Map[Pattern, Long] = {
    val sums = scala.collection.mutable.HashMap.empty[Pattern, Long]
    entries.forEach((key, e) => sums.updateWith(pattern(key, e))(n => Some(n.getOrElse(0L) + e.count)))
    sums.toMap
  }

  /** Whether every non-null string counted matches one of `targets`. */
  def allOnTarget: Boolean = entries.values.stream.allMatch(_.onTarget)

  /** One row per leaf pattern, plus a `(null, #nulls, null, false)` row
    * if any null was counted; ordered as Spark's
    * `orderBy(desc(count), asc(pattern))` orders them: count descending, then
    * rendered pattern in UTF-8 byte order with null first.
    */
  def listing: Seq[Listed] = {
    val rows = Vector.newBuilder[(Listed, Array[Byte])]
    if (nulls > 0) rows += Listed(null, nulls, null, onTarget = false) -> null
    entries.forEach { (key, e) =>
      val pattern = render(key)
      rows += Listed(pattern, e.count, e.sample, e.onTarget) -> pattern.getBytes(UTF_8)
    }
    rows.result().sorted(listingOrder).map(_._1)
  }

  override def equals(other: Any): Boolean = other match {
    case that: ClusterProfile => targets == that.targets && nulls == that.nulls && entries == that.entries
    case _                    => false
  }

  override def hashCode: Int = (targets, nulls, entries).hashCode
}

object ClusterProfile {

  /** The fewest strings a cluster needs before constant discovery (§4.1)
    * turns its constant runs into literals.
    */
  val MinSupport = 2

  def empty: ClusterProfile = against(Nil)

  /** An empty profile that also records, per cluster, whether every string
    * matches one of `targets`.
    */
  def against(targets: Seq[Pattern]): ClusterProfile = new ClusterProfile(targets, new JHashMap)

  /** Profile of `strings` in one pass. */
  def of(strings: IterableOnce[String]): ClusterProfile = {
    val profile = empty
    strings.iterator.foreach(profile.add)
    profile
  }

  /** A listing row: the rendered leaf pattern (null for the null strings),
    * its number of strings, the least of them (`sample`), and whether every
    * one matches a target. Within a leaf cluster two strings first differ at
    * an ASCII class-run character, so `sample` is the least in UTF-8 byte
    * order too: Spark's `min`.
    */
  final case class Listed(pattern: String, count: Long, sample: String, onTarget: Boolean)

  /** Count descending, then UTF-8 bytes ascending (a null array first). */
  private val listingOrder: Ordering[(Listed, Array[Byte])] = (a, b) => {
    val byCount = java.lang.Long.compare(b._1.count, a._1.count)
    if (byCount != 0) byCount else Arrays.compareUnsigned(a._2, b._2)
  }

  /** Key tags of a literal character and of a literal surrogate pair; class
    * runs are tagged with their `Tokenizer.classIndex` (0–2).
    */
  private val LitTag = 3.toChar
  private val PairTag = 4.toChar

  /** Compact key of `s`'s leaf pattern: per class run its tag and its length
    * in two chars (high and low 16 bits), per literal token `LitTag` and the
    * character or `PairTag` and the surrogate pair. Every tag fixes the width
    * of what follows it, so the key decodes back to exactly one pattern
    * (`leafPattern`): two strings share a key iff they share a leaf pattern.
    */
  def key(s: String): String = {
    val sb = new java.lang.StringBuilder
    encode(s, sb, new Array[Int](2 * s.length))
    sb.toString
  }

  /** Append `s`'s key to `key` and return the number of class runs; unless
    * `spans` is null, also write each run's start and end offset into it
    * (room for `2 * s.length`).
    */
  private[core] def encode(s: String, key: java.lang.StringBuilder, spans: Array[Int]): Int = {
    var runs = 0
    var i = 0
    val n = s.length
    while (i < n) {
      val cls = Tokenizer.classIndex(s.charAt(i))
      if (cls < 0) {
        if (Tokenizer.literalEnd(s, i) == i + 1) { key.append(LitTag).append(s.charAt(i)); i += 1 }
        else { key.append(PairTag).append(s.charAt(i)).append(s.charAt(i + 1)); i += 2 }
      } else {
        var j = i + 1
        while (j < n && Tokenizer.classIndex(s.charAt(j)) == cls) j += 1
        val len = j - i
        key.append(cls.toChar).append((len >>> 16).toChar).append(len.toChar)
        if (spans != null) {
          spans(2 * runs) = i
          spans(2 * runs + 1) = j
        }
        runs += 1
        i = j
      }
    }
    runs
  }

  /** Number of key chars after tag `tag`. */
  private def width(tag: Char): Int = if (tag < LitTag) 2 else tag - LitTag + 1

  private def runLength(key: String, i: Int): Int = (key.charAt(i + 1) << 16) | key.charAt(i + 2)

  /** The leaf pattern a key encodes. */
  def leafPattern(key: String): Pattern = {
    val out = Vector.newBuilder[Token]
    var i = 0
    while (i < key.length) {
      val tag = key.charAt(i)
      out += (if (tag < LitTag) Token(Tokenizer.leafClasses(tag), runLength(key, i))
              else Token.lit(key.substring(i + 1, i + 1 + width(tag))))
      i += 1 + width(tag)
    }
    Pattern(out.result())
  }

  /** `leafPattern(key).render`, written straight from the key. */
  private def render(key: String): String = {
    val out = new java.lang.StringBuilder(2 * key.length)
    var i = 0
    while (i < key.length) {
      val tag = key.charAt(i)
      if (tag < LitTag) out.append(RunOpen(tag)).append(runLength(key, i))
      else out.append('\'').append(key, i + 1, i + 1 + width(tag)).append('\'')
      i += 1 + width(tag)
    }
    out.toString
  }

  /** `Token.render` of a class run without its length, by class tag. */
  private val RunOpen = Tokenizer.leafClasses.map(_.tag)

  /** One cluster's summary. `spans` holds the start and end offset of each
    * class run, `constant(r)` whether run `r` held the same substring in
    * every string counted; `sample` is the least string counted and
    * `onTarget` whether every one matched a target.
    */
  private final class Entry(var count: Long, var sample: String, var onTarget: Boolean,
                            val spans: Array[Int], val constant: Array[Boolean]) extends Serializable {

    def add(s: String, matched: Boolean): Unit = {
      count += 1
      onTarget &&= matched
      narrow(s)
      if (s.compareTo(sample) < 0) sample = s
    }

    def merge(that: Entry): Unit = {
      count += that.count
      onTarget &&= that.onTarget
      var r = 0
      while (r < constant.length) { constant(r) &&= that.constant(r); r += 1 }
      narrow(that.sample)
      if (that.sample.compareTo(sample) < 0) sample = that.sample
    }

    /** Clear the runs where `s` (same leaf pattern) differs from `sample`. */
    private def narrow(s: String): Unit = {
      var r = 0
      while (r < constant.length) {
        if (constant(r)) {
          val start = spans(2 * r)
          constant(r) = s.regionMatches(start, sample, start, spans(2 * r + 1) - start)
        }
        r += 1
      }
    }

    /** The leaf pattern of `key` with every constant run made a literal. */
    def refined(key: String): Pattern = {
      var r = -1
      Pattern(leafPattern(key).tokens.map { t =>
        if (t.isLiteral) t
        else {
          r += 1
          if (constant(r)) Token.lit(sample.substring(spans(2 * r), spans(2 * r + 1))) else t
        }
      })
    }

    def copy: Entry = new Entry(count, sample, onTarget, spans, constant.clone)

    override def equals(other: Any): Boolean = other match {
      case that: Entry =>
        count == that.count && sample == that.sample && onTarget == that.onTarget &&
          Arrays.equals(constant, that.constant)
      case _ => false
    }

    override def hashCode: Int = (count, sample, onTarget, Arrays.hashCode(constant)).hashCode
  }

  private object Entry {
    def apply(s: String, spans: Array[Int], onTarget: Boolean): Entry =
      new Entry(1, s, onTarget, spans, Array.fill(spans.length / 2)(true))
  }
}
