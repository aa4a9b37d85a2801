package repro.core

object Timing {

  /** Run `body`; return its value and its wall time in milliseconds. */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }
}
