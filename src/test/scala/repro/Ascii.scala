package repro

import org.scalactic.Prettifier

/** Failure messages in printable ASCII. A message holding a lone surrogate
  * cannot be encoded to send from the forked test JVM to sbt, and the run
  * aborts without reporting the suites after it.
  */
object Ascii {

  /** `s` with every character but newline and printable ASCII written as `\uXXXX`. */
  def escape(s: String): String =
    s.flatMap(c => if (c == '\n' || (c >= ' ' && c <= '~')) c.toString else f"\\u${c.toInt}%04X")
}

/** Mixed into every suite: the values a failing `assert(a == b)`,
  * `assertResult` or `===` prints go through `Ascii.escape`.
  */
trait AsciiMessages {
  implicit val asciiPrettifier: Prettifier = (o: Any) => Ascii.escape(Prettifier.default(o))
}
