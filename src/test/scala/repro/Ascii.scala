package repro

/** Failure messages in printable ASCII. A message holding a lone surrogate
  * cannot be encoded to send from the forked test JVM to sbt, and the run
  * aborts without reporting the suites after it.
  */
object Ascii {

  /** `s` with every character but newline and printable ASCII written as `\uXXXX`. */
  def escape(s: String): String =
    s.flatMap(c => if (c == '\n' || (c >= ' ' && c <= '~')) c.toString else f"\\u${c.toInt}%04X")
}
