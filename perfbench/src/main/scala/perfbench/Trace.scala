package perfbench

import scala.collection.mutable

/** One timed call into a layer. `parent` is the id of the enclosing span,
  * or -1 for a root.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** Spans and counters recorded around the benchmark's calls into the
  * program, kept in memory until the run ends. A disabled tracer runs the
  * wrapped code and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  private val counts = mutable.LinkedHashMap.empty[String, Double]

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        done += Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  def add(counter: String, by: Double = 1): Unit =
    if (enabled) counts(counter) = counts.getOrElse(counter, 0.0) + by

  def spans: Vector[Span] = done.toVector
  def counters: Map[String, Double] = counts.toMap
}

object Trace {

  /** Length of the union of `[start, end)` intervals. */
  def coveredNs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (curEnd > curStart) total += curEnd - curStart
    total
  }

  /** Self time in seconds per span name: each span's duration minus the
    * part of it that its direct children cover, summed over spans of that
    * name.
    */
  def selfSeconds(spans: Seq[Span]): Map[String, Double] = {
    val children = spans.groupBy(_.parent)
    spans.groupMapReduce(_.name) { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      (s.durationNs - coveredNs(kids)) / 1e9
    }(_ + _)
  }

  /** Total duration in seconds per span name. */
  def totalSeconds(spans: Seq[Span]): Map[String, Double] =
    spans.groupMapReduce(_.name)(_.durationNs / 1e9)(_ + _)

  /** One JSON object per line: name, start, end (ns) and parent id. */
  def jsonLines(spans: Seq[Span]): String =
    spans.sortBy(_.id).map { s =>
      Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
               "start_ns" -> s.startNs, "end_ns" -> s.endNs)
    }.mkString("", "\n", "\n")
}
