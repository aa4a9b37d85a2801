package repro.core

import repro.SparkSpec
import scala.util.Random

class SamplerSpec extends SparkSpec {

  test("sample fraction must lie in (0, 1]") {
    val df = spark.range(10).toDF("id")
    Seq(0.0, -0.5, 1.5, Double.NaN).foreach { f =>
      intercept[IllegalArgumentException](Sampler.sample(df, f, 1L))
      intercept[IllegalArgumentException](Sampler.rows(10, f, 1L))
    }
  }

  test("fraction 1.0 returns the input unchanged") {
    val df = spark.range(10).toDF("id")
    assert(Sampler.sample(df, 1.0, 7L) eq df)
    assert(Sampler.rows(10, 1.0, 7L).toSeq == (0 until 10))
  }

  test("a sample is a seed-determined subset near the requested fraction") {
    val n = 4000
    val df = spark.range(0, n, 1, 2).toDF("id")
    def viaFrame(f: Double, seed: Long): Seq[Long] =
      Sampler.sample(df, f, seed).collect().map(_.getLong(0)).toSeq
    def viaRows(f: Double, seed: Long): Seq[Long] = Sampler.rows(n, f, seed).map(_.toLong).toSeq
    for ((name, ids) <- Seq("sample" -> viaFrame _, "rows" -> viaRows _); f <- Seq(0.05, 0.3, 0.9)) {
      val a = ids(f, 3L)
      assert(a == ids(f, 3L), s"$name, fraction $f: same seed, different sample")
      assert(a != ids(f, 4L), s"$name, fraction $f: the seed is ignored")
      assert(a.distinct.size == a.size && a.forall(id => id >= 0 && id < n), s"$name, fraction $f")
      // Bernoulli sampling: |sample| ~ Binomial(n, f); allow 6 standard deviations.
      val sd = math.sqrt(n * f * (1 - f))
      assert(math.abs(a.size - n * f) <= 6 * sd, s"$name, fraction $f kept ${a.size} of $n")
    }
    assert(viaRows(0.3, 3L) == viaRows(0.3, 3L).sorted, "rows are not ascending")
  }

  test("rows keeps exactly the rows that sample keeps on a one-partition frame") {
    val n = 500
    val df = spark.range(0, n, 1, 1).toDF("id")
    for (f <- Seq(0.05, 0.3, 0.5, 0.9); seed <- Seq(1L, 3L, 101L, 107L))
      assert(Sampler.rows(n, f, seed).map(_.toLong).toSeq ==
        Sampler.sample(df, f, seed).collect().map(_.getLong(0)).toSeq, s"fraction $f, seed $seed")
  }


  test("sample threshold equals epsilon minus the confidence correction") {
    val eps = 0.01
    val pHat = 0.005
    val m = 10000L
    val thr = Sampler.sampleThreshold(eps, pHat, m, alpha = 0.05)
    val z = Stats.zFor(0.05)
    val expected = eps - z * math.sqrt(pHat * (1 - pHat) / m)
    assert(math.abs(thr - expected) < 1e-12)
    assert(thr < eps)
  }

  test("threshold approaches epsilon as the sample grows (Sec. 7.2)") {
    val eps = 0.01; val pHat = 0.004
    val thrs = Seq(1000L, 10000L, 100000L, 10000000L)
      .map(Sampler.sampleThreshold(eps, pHat, _, 0.05))
    assert(thrs.zip(thrs.tail).forall { case (a, b) => a < b })
    assert(math.abs(thrs.last - eps) < 1e-3)
  }

  test("accept agrees with the inequality-2 criterion") {
    val eps = 0.01; val m = 50000L
    assert(Sampler.accept(eps, 0.001, m, 0.05))
    assert(!Sampler.accept(eps, 0.05, m, 0.05))
    // Right at the boundary, smaller alpha (stricter confidence) rejects.
    val pHat = 0.0095
    if (Sampler.accept(eps, pHat, m, 0.4)) {
      assert(!Sampler.accept(eps, pHat, 100L, 0.001) ||
        Sampler.sampleThreshold(eps, pHat, 100L, 0.001) >= pHat)
    }
  }

  test("f1adj acceptance on the sample matches Sampler.accept") {
    import EnumTestKit._
    val rnd = new Random(42)
    (0 until 30).foreach { trial =>
      val n = 10
      val pairs = for (i <- 0 until n; j <- 0 until n if i != j)
        yield ((i, j), Set(rnd.nextInt(3)))
      val ev = evidenceFromPairs(3, n, pairs.toSeq)
      val alpha = 0.05
      val fAdj = new F1Adjusted(ev, alpha)
      val f1 = new F1(ev)
      val eps = Seq(0.05, 0.2, 0.5)(rnd.nextInt(3))
      val hs = Set(rnd.nextInt(3))
      val viol = ev.violatingClasses(hs)
      val pHat = f1.g(viol.iterator)
      assert((fAdj.g(viol.iterator) <= eps) == Sampler.accept(eps, pHat, ev.totalPairs, alpha),
        s"trial $trial pHat=$pHat eps=$eps")
    }
  }

  test("degenerate pair counts do not blow up") {
    val thr = Sampler.sampleThreshold(0.01, 0.5, 0L, 0.05)
    assert(!thr.isNaN && !thr.isInfinite)
  }
}
