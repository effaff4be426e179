package perfbench

import scala.util.control.NonFatal

/** Counts output checks as operations attempted and failed. A check that
  * throws is a failed operation, never a crash of the benchmark.
  */
final class Tally {
  private var attemptedN = 0
  private var failedN = 0

  def attempted: Int = attemptedN
  def failed: Int = failedN

  /** Record one check; returns whether it passed. */
  def check(what: String)(ok: => Boolean): Boolean = {
    attemptedN += 1
    val passed =
      try ok
      catch { case NonFatal(e) => Console.err.println(s"[perfbench] check '$what' threw: $e"); false }
    if (!passed) {
      failedN += 1
      Console.err.println(s"[perfbench] check failed: $what")
    }
    passed
  }

  /** Run one operation whose checks are made inside `body`; if it throws,
    * count it as one failed operation and return None.
    */
  def guard[A](what: String)(body: => A): Option[A] =
    try Some(body)
    catch {
      case NonFatal(e) =>
        attemptedN += 1
        failedN += 1
        Console.err.println(s"[perfbench] $what failed: $e")
        None
    }
}
