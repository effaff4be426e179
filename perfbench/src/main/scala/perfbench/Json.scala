package perfbench

/** Minimal JSON writer for the result line and the span file. */
object Json {

  def string(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def value(v: Any): String = v match {
    case null                    => "null"
    case s: String               => string(s)
    case b: Boolean              => b.toString
    case i: Int                  => i.toString
    case l: Long                 => l.toString
    case d: Double               =>
      require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
      d.toString
    case m: Map[_, _]            => obj(m.toSeq.map { case (k, x) => k.toString -> x }: _*)
    case xs: Seq[_]              => xs.map(value).mkString("[", ", ", "]")
    case other                   => sys.error(s"no JSON form for ${other.getClass.getName}")
  }

  /** An object with its fields in the order given. */
  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${string(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
