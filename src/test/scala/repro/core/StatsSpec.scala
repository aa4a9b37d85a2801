package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class StatsSpec extends AnyFunSuite {

  test("normal quantile hits known values") {
    assert(math.abs(Stats.normalQuantile(0.5)) < 1e-9)
    assert(math.abs(Stats.normalQuantile(0.975) - 1.959963985) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.95) - 1.644853627) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.05) + 1.644853627) < 1e-6)
    assert(math.abs(Stats.normalQuantile(0.99) - 2.326347874) < 1e-6)
  }

  test("normal quantile is symmetric and monotone") {
    val rnd = new Random(41)
    (0 until 200).foreach { _ =>
      val p = 0.001 + rnd.nextDouble() * 0.998
      assert(math.abs(Stats.normalQuantile(p) + Stats.normalQuantile(1 - p)) < 1e-7)
    }
    val ps = (1 to 99).map(_ / 100.0)
    val qs = ps.map(Stats.normalQuantile)
    assert(qs.zip(qs.tail).forall { case (a, b) => a < b })
  }

  test("quantile inverts the CDF") {
    for (p <- Seq(0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99))
      assert(math.abs(Stats.normalCdf(Stats.normalQuantile(p)) - p) < 1e-5)
  }

  test("quantile rejects out-of-range arguments") {
    intercept[IllegalArgumentException](Stats.normalQuantile(0.0))
    intercept[IllegalArgumentException](Stats.normalQuantile(1.0))
  }

  test("zFor reads the two-sided confidence quantile") {
    assert(math.abs(Stats.zFor(0.025) - 1.959963985) < 1e-6)
    assert(math.abs(Stats.zFor(0.05) - 1.644853627) < 1e-6)
  }
}
