package repro.eval

/** Plain-text table rendering for the bench suites' output. */
object Tables {

  def fmt(headers: Seq[String], rows: Seq[Seq[Any]]): String = {
    val all = headers +: rows.map(_.map {
      case d: Double => f"$d%.4f"
      case x         => x.toString
    })
    val widths = headers.indices.map(c => all.map(_(c).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (s, w) => s.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(headers.map(_.toString)) +: sep +: all.tail.map(line)).mkString("\n")
  }

  def banner(title: String): String =
    "\n" + "=" * 72 + s"\n== $title\n" + "=" * 72
}
