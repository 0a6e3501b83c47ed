package perfbench

/** Minimal JSON writer for the result line and the run record. Numbers
  * keep every digit ``Double.toString`` gives; NaN and infinities become
  * ``null``.
  */
object Json {
  def write(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => write(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n @ (_: Int | _: Long) => n.toString
    case m: Map[_, _] => m.map { case (k, x) => s"${quote(k.toString)}:${write(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(write).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
