package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Fixtures, SparkSpec}
import repro.data.{AdultData, TaxData, VoterData}
import scala.jdk.CollectionConverters._

class AdcMinerSpec extends SparkSpec {

  private lazy val df = Fixtures.runningExample(spark)

  /** `local`'s rows as a cached, RDD-backed frame in `slices` input partitions. */
  private def cached(local: DataFrame, slices: Int): DataFrame = {
    val rdd = spark.sparkContext.parallelize(local.collect().toSeq, slices)
    val input = spark.createDataFrame(rdd, local.schema).cache()
    input.count()
    input
  }

  private def gOf(res: MinerResult, dc: DenialConstraint, fName: String, eps: Double): Double = {
    val hs = dc.preds.map(p => res.space.indexOf(p.complement))
    ApproxFunction(fName, res.evidence, eps).g(res.evidence.violatingClasses(hs).iterator)
  }

  test("all mined DCs satisfy the threshold and are minimal (f1)") {
    val cfg = MinerConfig(fName = "f1", epsilon = 0.01, overlapThreshold = 0.3, maxDcSize = 3)
    val res = AdcMiner.mine(spark, df, cfg)
    assert(res.dcs.nonEmpty)
    res.dcs.foreach { dc =>
      assert(gOf(res, dc, "f1", cfg.epsilon) <= cfg.epsilon, dc)
      dc.preds.foreach { p =>
        val sub = DenialConstraint(dc.preds - p)
        assert(gOf(res, sub, "f1", cfg.epsilon) > cfg.epsilon, s"non-minimal: $dc minus $p")
      }
    }
    assert(res.dcs.map(_.canonical).distinct.size == res.dcs.size)
  }

  test("phi1 of the paper is mined at epsilon 0.01 when minimal") {
    val cfg = MinerConfig(fName = "f1", epsilon = 0.01, overlapThreshold = 0.3, maxDcSize = 3)
    val res = AdcMiner.mine(spark, df, cfg)
    val s = res.space.colNames.indexOf("state")
    val i = res.space.colNames.indexOf("income")
    val t = res.space.colNames.indexOf("tax")
    val phi1 = DenialConstraint(Set(
      Predicate.normalized(ColRef(0, s), ColRef(1, s), Op.Eq),
      Predicate.normalized(ColRef(0, i), ColRef(1, i), Op.Gt),
      Predicate.normalized(ColRef(0, t), ColRef(1, t), Op.Leq))).canonical
    // phi1 has 2/210 violations <= 0.01; it must be mined iff minimal.
    assert(gOf(res, phi1, "f1", cfg.epsilon) <= cfg.epsilon)
    val minimal = phi1.preds.forall(p =>
      gOf(res, DenialConstraint(phi1.preds - p), "f1", cfg.epsilon) > cfg.epsilon)
    assert(res.dcs.map(_.canonical).contains(phi1) == minimal)
    assert(minimal, "phi1 expected minimal on the running example")
  }

  test("phi1 is not mined with a stricter threshold") {
    val cfg = MinerConfig(fName = "f1", epsilon = 0.001, overlapThreshold = 0.3, maxDcSize = 3)
    val res = AdcMiner.mine(spark, df, cfg)
    val names = res.space.colNames
    val phi1Preds = Set(
      Predicate.normalized(ColRef(0, names.indexOf("state")), ColRef(1, names.indexOf("state")), Op.Eq),
      Predicate.normalized(ColRef(0, names.indexOf("income")), ColRef(1, names.indexOf("income")), Op.Gt),
      Predicate.normalized(ColRef(0, names.indexOf("tax")), ColRef(1, names.indexOf("tax")), Op.Leq))
    assert(!res.dcs.map(_.canonical).contains(DenialConstraint(phi1Preds).canonical))
  }

  test("SearchMC baseline mines the same DC set as ADCEnum") {
    for (eps <- Seq(0.01, 0.05); f <- Seq("f1", "f2", "f3")) {
      val a = AdcMiner.mine(spark, df,
        MinerConfig(fName = f, epsilon = eps, maxDcSize = 3))
      val ev = a.evidence
      val mc = new SearchMC(ev.masks, ev.counts, ev.nPreds, a.space.groupOf,
        ApproxFunction(f, ev, eps), eps, 3)
      val b = mc.enumerate().map(a.space.dcFromHittingSet)
      assert(a.dcs.map(_.canonical).toSet == b.map(_.canonical).toSet,
        s"f=$f eps=$eps")
    }
  }

  test("min-intersection class choice mines the same DC set") {
    val a = AdcMiner.mine(spark, df, MinerConfig(epsilon = 0.02, maxDcSize = 3))
    val b = AdcMiner.mine(spark, df,
      MinerConfig(epsilon = 0.02, maxDcSize = 3, chooseMaxIntersection = false))
    assert(a.dcs.map(_.canonical).toSet == b.dcs.map(_.canonical).toSet)
  }

  test("naive evidence path mines the same DC set") {
    // Tax has over 128 predicates, so its masks span three 64-bit words.
    val tax = TaxData.generate(spark, 100)
    for ((input, f) <- Seq(df -> "f1", df -> "f3", tax -> "f1")) {
      val cfg = MinerConfig(fName = f, epsilon = 0.02, maxDcSize = 3)
      val a = AdcMiner.mine(spark, input, cfg)
      if (input eq tax) assert(a.space.size > 128, a.space.size)
      val rel = EncodedRelation.fromDataFrame(input)
      val naive = NaiveEvidenceBuilder.build(spark, rel, a.space, needVios = true)
      val b = AdcMiner.mineFromEvidence(naive, a.space, cfg)
      assert(a.dcs.map(_.canonical).toSet == b.dcs.map(_.canonical).toSet, s"f=$f")
    }
  }

  test("mine equals a one-worker enumeration over its evidence") {
    assert(AdcMiner.enumWorkers(spark) ==
      math.min(Runtime.getRuntime.availableProcessors, spark.sparkContext.defaultParallelism))
    val inputs = Seq(
      TaxData.generate(spark, 400) -> MinerConfig(fName = "f1adj", epsilon = 0.1,
        sampleFraction = 0.5, seed = 3L, maxDcSize = 2),
      VoterData.generate(spark, 120) -> MinerConfig(fName = "f3", epsilon = 0.05, maxDcSize = 3),
      AdultData.generate(spark, 80) -> MinerConfig(fName = "f1", epsilon = 1e-3, maxDcSize = 2))
    for ((input, cfg) <- inputs) {
      val r = AdcMiner.mine(spark, input, cfg)
      val ev = r.evidence
      assert(ev.vios.isDefined == ApproxFunction.needsVios(cfg.fName))
      val one = new AdcEnum(ev.masks, ev.counts, ev.nPreds, r.space.groupOf,
        ApproxFunction(cfg.fName, ev, cfg.epsilon, cfg.alpha), cfg.epsilon,
        cfg.chooseMaxIntersection, cfg.maxDcSize)
      assert(r.hittingSets == one.enumerate(), cfg.fName)
      assert(r.enumNodes == one.nodes, cfg.fName)
      assert(r.dcs == DenialConstraint.distinctCanonical(one.enumerate().map(r.space.dcFromHittingSet)))
    }
  }

  test("f2/f3 mining runs end to end with vios") {
    for (f <- Seq("f2", "f3")) {
      val res = AdcMiner.mine(spark, df, MinerConfig(fName = f, epsilon = 0.2, maxDcSize = 2))
      assert(res.evidence.vios.nonEmpty)
      res.dcs.foreach(dc => assert(gOf(res, dc, f, 0.2) <= 0.2, s"$f: $dc"))
    }
  }

  test("sampling reduces the mined relation") {
    val res = AdcMiner.mine(spark, Fixtures.smallMixed(spark, n = 200),
      MinerConfig(epsilon = 0.05, sampleFraction = 0.3, maxDcSize = 2, seed = 5))
    assert(res.sampleRows < 200 && res.sampleRows > 10)
    assert(res.evidence.nTuples == res.sampleRows)
  }

  test("timings are recorded") {
    val res = AdcMiner.mine(spark, df, MinerConfig(epsilon = 0.05, maxDcSize = 2))
    assert(res.spaceMs >= 0 && res.encodeMs >= 0 && res.evidenceMs >= 0 && res.enumMs >= 0)
    assert(res.totalMs == res.spaceMs + res.encodeMs + res.evidenceMs + res.enumMs)
    assert(res.enumNodes > 0)
  }

  test("degenerate inputs: 0-2 rows and epsilon 0 or 1 mine without throwing") {
    def prefix(k: Int) = spark.createDataFrame(
      Fixtures.runningExampleRows.take(k).asJava, Fixtures.runningExampleSchema)
    // (rows mined, input, sample fraction, seed): the prefixes of the running
    // example, and samples of all 15 rows that keep 0 and 1 of them.
    val frac = 0.05
    def seedKeeping(k: Int) =
      Iterator.from(1).map(_.toLong).find(Sampler.rows(15, frac, _).length == k).get
    val inputs = Seq(0, 1, 2, 15).map(k => (k, prefix(k), 1.0, 42L)) ++
      Seq(0, 1).map(k => (k, df, frac, seedKeeping(k)))
    for ((k, input, fraction, seed) <- inputs; f <- Seq("f1", "f3"); eps <- Seq(0.0, 1.0)) {
      val res = AdcMiner.mine(spark, input, MinerConfig(fName = f, epsilon = eps,
        sampleFraction = fraction, seed = seed, maxDcSize = 3))
      assert(res.sampleRows == k)
      res.dcs.foreach(dc => assert(gOf(res, dc, f, eps) <= eps, s"n=$k $f eps=$eps: $dc"))
      // With at most one row there is no pair, and at eps = 1 every DC
      // passes, so the empty DC is the one minimal ADC.
      if (k <= 1 || eps == 1.0)
        assert(res.dcs == Vector(DenialConstraint(Set.empty)), s"n=$k $f eps=$eps")
      else assert(res.dcs.nonEmpty, s"n=$k $f eps=$eps")
    }
  }

  test("the sample does not depend on the input partitioning") {
    val local = TaxData.generate(spark, 600, seed = 3L)
    val cfg = MinerConfig(fName = "f1adj", epsilon = 0.1, sampleFraction = 0.5, seed = 3L,
      maxDcSize = 2)
    val Seq(a, b) = Seq(1, 4).map { slices =>
      val input = cached(local, slices)
      try AdcMiner.mine(spark, input, cfg) finally input.unpersist()
    }
    assert(a.sampleRows == b.sampleRows)
    assert(a.dcs.map(_.canonical).toSet == b.dcs.map(_.canonical).toSet)
  }

  test("mine runs two Spark jobs: the collect of D and the evidence scan") {
    val input = cached(Fixtures.smallMixed(spark, n = 200), 2)
    val fractions = Seq(0.5, 1.0)
    val seen = try jobGroupsOf {
      for (fraction <- fractions) {
        spark.sparkContext.setJobGroup(s"mine-$fraction", "")
        AdcMiner.mine(spark, input, MinerConfig(sampleFraction = fraction, maxDcSize = 2))
      }
    } finally input.unpersist()
    for (fraction <- fractions)
      assert(seen.count(_ == s"mine-$fraction") == 2, s"fraction $fraction: $seen")
  }

  test("f1adj mines a subset of f1's ADCs at the same threshold") {
    val a = AdcMiner.mine(spark, df, MinerConfig(fName = "f1", epsilon = 0.05, maxDcSize = 2))
    val b = AdcMiner.mine(spark, df, MinerConfig(fName = "f1adj", epsilon = 0.05, maxDcSize = 2))
    // Every f1adj ADC satisfies the stricter adjusted criterion, hence also
    // plain f1 at the same epsilon -> its full set is contained in closure
    // of f1 ADCs by supersets; at minimum every f1adj DC passes f1's bound.
    b.dcs.foreach { dc =>
      val hsIdx = dc.preds.map(p => b.space.indexOf(p.complement))
      val g1 = new F1(b.evidence).g(b.evidence.violatingClasses(hsIdx).iterator)
      assert(g1 <= 0.05)
    }
  }
}
