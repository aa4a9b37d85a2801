package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Timing.timed
import repro.data._

/** Harness for the reproduced evaluation exhibits (Sec. 8). Every public
  * method corresponds to one table/figure of the paper and returns typed
  * rows; `Tables.fmt` renders them. The `bench/` suites are the only
  * callers: each prints its exhibit and asserts its shape, and
  * `sbt "bench/testOnly <suite> -- -z <exhibit>"` runs one exhibit. Each
  * method fixes the parameters of its exhibit (function, ε, DC size cap,
  * seed, rows) as constants; only the arguments the suites vary are
  * parameters.
  */
object Experiments {

  /** Rows per dataset used by the benches; override with BENCH_SCALE (a
    * multiplier, e.g. 0.5 halves every dataset).
    */
  def benchRows(d: BenchDataset, rowsOverride: Map[String, Int] = Map.empty): Int = {
    val scale = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)
    val base = rowsOverride.getOrElse(d.name, d.defaultRows)
    math.max(60, (base * scale).toInt)
  }

  /** Per-dataset rows for the *timing* benches: sized so the evidence sets
    * stay in the regime where the single-threaded FASTDC-style baseline
    * finishes in tens of seconds (calibrated; see EXPERIMENTS.md). The
    * enumeration problem (predicate space, class structure) is unchanged —
    * only the pair bag shrinks.
    */
  val timingRows: Map[String, Int] = Map(
    "Tax" -> 750, "Stock" -> 310, "Hospital" -> 150, "Food" -> 750,
    "Airport" -> 550, "Adult" -> 120, "Flight" -> 120, "Voter" -> 1000)

  /** Rows for the function-split and G-recall benches (f2/f3 enumeration at
    * large epsilon is the costly path).
    */
  val qualityRows: Map[String, Int] = Map(
    "Tax" -> 400, "Stock" -> 250, "Hospital" -> 150, "Food" -> 400,
    "Airport" -> 300, "Adult" -> 120, "Flight" -> 120, "Voter" -> 400)

  /** Dataset `d` at `rows` rows, collected and encoded once per exhibit. */
  private def encode(spark: SparkSession, d: BenchDataset, rows: Int): EncodedRelation =
    EncodedRelation.fromDataFrame(d.generate(spark, rows))

  /** Build (space, evidence) for an encoded relation. */
  def prepare(spark: SparkSession, rel: EncodedRelation, needVios: Boolean): (PredicateSpace, Evidence, Long, Long) = {
    val (space, spaceMs) = timed(PredicateSpace.build(rel, 0.3))
    val (ev, evMs) = timed(EvidenceBuilder.build(spark, rel, space, needVios))
    (space, ev, spaceMs, evMs)
  }

  // ------------------------------------------------------------------
  // Table 4
  // ------------------------------------------------------------------
  final case class Table4Row(dataset: String, rows: Long, attrs: Int, golden: Int,
      paperRows: String, paperAttrs: Int, paperGolden: Int, goldenHold: Boolean)

  def table4(spark: SparkSession): Seq[Table4Row] =
    Datasets.all.map { d =>
      val (space, ev, _, _) = prepare(spark, encode(spark, d, benchRows(d)), needVios = false)
      val hold = d.goldenDcs.forall { dc =>
        ev.violationsOf(dc.preds.map(p => space.indexOf(p.complement))) == 0L
      }
      Table4Row(d.name, ev.nTuples.toLong, d.schema.size, d.golden.size,
        d.paperTuples, d.paperAttrs, d.golden.size, hold)
    }

  // ------------------------------------------------------------------
  // Fig. 6 / Fig. 9: ADCEnum vs SearchMC enumeration time
  // ------------------------------------------------------------------
  final case class EnumRow(dataset: String, fn: String, sampleFrac: Double,
      nTuples: Int, nPreds: Int, nClasses: Int,
      adcEnumMs: Long, searchMcMs: Long, adcNodes: Long, mcNodes: Long, nDcs: Int)

  def enumCompare(
      spark: SparkSession,
      datasets: Seq[BenchDataset],
      sampleFracs: Seq[Double] = Seq(1.0)): Seq[EnumRow] = {
    val fn = "f1"; val epsilon = 0.1; val maxDcSize = 3; val seed = 42L
    for (d <- datasets; rel = encode(spark, d, benchRows(d, timingRows));
         frac <- sampleFracs) yield {
      val sample = rel.select(Sampler.rows(rel.n, frac, seed))
      val (space, ev, _, _) = prepare(spark, sample, ApproxFunction.needsVios(fn))
      val ((nDcs, adcNodes), adcMs) = timed {
        val f = ApproxFunction(fn, ev, epsilon)
        val e = new AdcEnum(ev.masks, ev.counts, ev.nPreds, space.groupOf, f, epsilon,
          true, maxDcSize)
        (e.enumerate().size, e.nodes)
      }
      val (mcNodes, mcMs) = timed {
        val f = ApproxFunction(fn, ev, epsilon)
        val e = new SearchMC(ev.masks, ev.counts, ev.nPreds, space.groupOf, f, epsilon, maxDcSize)
        e.enumerate()
        e.nodes
      }
      EnumRow(d.name, fn, frac, ev.nTuples, space.size, ev.nClasses,
        adcMs, mcMs, adcNodes, mcNodes, nDcs)
    }
  }

  // ------------------------------------------------------------------
  // Fig. 10: max- vs min-intersection choice in ADCEnum
  // ------------------------------------------------------------------
  final case class ChoiceRow(dataset: String, fn: String,
      maxChoiceMs: Long, minChoiceMs: Long, maxNodes: Long, minNodes: Long,
      maxBranches: Branches, minBranches: Branches)

  /** ADCEnum branch counters of one run: skip- and hit-branch nodes,
    * WillCover prunes and crit-test failures.
    */
  final case class Branches(skipNodes: Long, hitNodes: Long, willCoverPrunes: Long,
      critFailures: Long)

  def choiceCompare(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[ChoiceRow] = {
    val epsilon = 0.1; val maxDcSize = 3
    for (d <- datasets; rel = encode(spark, d, benchRows(d, qualityRows));
         fn <- Seq("f1", "f2", "f3")) yield {
      val (space, ev, _, _) = prepare(spark, rel, ApproxFunction.needsVios(fn))
      def run(chooseMax: Boolean): (AdcEnum, Long) = timed {
        val e = new AdcEnum(ev.masks, ev.counts, ev.nPreds, space.groupOf,
          ApproxFunction(fn, ev, epsilon), epsilon, chooseMax, maxDcSize)
        e.enumerate()
        e
      }
      def branches(e: AdcEnum) =
        Branches(e.skipNodes, e.hitNodes, e.willCoverPrunes, e.critFailures)
      val (maxE, maxMs) = run(chooseMax = true)
      val (minE, minMs) = run(chooseMax = false)
      ChoiceRow(d.name, fn, maxMs, minMs, maxE.nodes, minE.nodes, branches(maxE), branches(minE))
    }
  }

  // ------------------------------------------------------------------
  // Fig. 7: total time ADCMiner vs DCFinder-like vs AFASTDC-like
  // Fig. 8: ADCMiner per approximation function, evidence vs enum split
  // ------------------------------------------------------------------
  final case class TotalRow(dataset: String, system: String, fn: String,
      spaceMs: Long, evidenceMs: Long, enumMs: Long, nDcs: Int) {
    def totalMs: Long = spaceMs + evidenceMs + enumMs
  }

  def totalCompare(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[TotalRow] = {
    val epsilon = 0.1; val maxDcSize = 3
    datasets.flatMap { d =>
      val rel = encode(spark, d, benchRows(d, timingRows))
      val (space, fastEv, spaceMs, fastMs) = prepare(spark, rel, needVios = false)
      val (naiveEv, naiveMs) = timed(NaiveEvidenceBuilder.build(spark, rel, space))
      val adc = AdcMiner.mineFromEvidence(fastEv, space,
        MinerConfig(fName = "f1", epsilon = epsilon, maxDcSize = maxDcSize))
      val nAdc = adc.dcs.size
      val f = ApproxFunction("f1", fastEv, epsilon)
      val (_, mcEnumMs) = timed(new SearchMC(fastEv.masks, fastEv.counts, fastEv.nPreds,
        space.groupOf, f, epsilon, maxDcSize).enumerate())
      // naiveEv equals fastEv (differential-tested), so SearchMC over it is
      // the same computation; reuse the measured enumeration time.
      require(naiveEv.checksum == fastEv.checksum, "evidence builders disagree")
      Seq(
        TotalRow(d.name, "ADCMiner", "f1", spaceMs, fastMs, adc.enumMs, nAdc),
        TotalRow(d.name, "DCFinder-like", "f1", spaceMs, fastMs, mcEnumMs, nAdc),
        TotalRow(d.name, "AFASTDC-like", "f1", spaceMs, naiveMs, mcEnumMs, nAdc))
    }
  }

  def totalByFunction(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[TotalRow] =
    datasets.flatMap { d =>
      val (space, ev, spaceMs, evMs) =
        prepare(spark, encode(spark, d, benchRows(d, qualityRows)), needVios = true)
      Seq("f1", "f2", "f3").map { fn =>
        val r = AdcMiner.mineFromEvidence(ev, space,
          MinerConfig(fName = fn, epsilon = 0.1, maxDcSize = 3))
        TotalRow(d.name, "ADCMiner", fn, spaceMs, evMs, r.enumMs, r.dcs.size)
      }
    }

  // ------------------------------------------------------------------
  // Fig. 11: F1 score of sample-mined vs full-mined ADCs
  // Fig. 12: total runtime for varying sample sizes
  // Fig. 13: average (epsilon - pHat) over mined ADCs per sample size
  // ------------------------------------------------------------------
  final case class SampleQualityRow(dataset: String, fn: String, epsilon: Double,
      frac: Double, precision: Double, recall: Double, f1: Double,
      nSample: Int, nFull: Int)

  def samplingQuality(
      spark: SparkSession,
      datasets: Seq[BenchDataset],
      fns: Seq[String],
      epsilons: Seq[Double],
      fracs: Seq[Double]): Seq[SampleQualityRow] =
    datasets.flatMap { d =>
      val rel = encode(spark, d, benchRows(d, qualityRows))
      val needVios = fns.exists(ApproxFunction.needsVios)
      val (space, fullEv, _, _) = prepare(spark, rel, needVios)
      val sampleEvs = fracs.map { frac =>
        val sample = rel.select(Sampler.rows(rel.n, frac, 7L))
        frac -> EvidenceBuilder.build(spark, sample, space, needVios)
      }
      for (fn <- fns; eps <- epsilons) yield {
        val cfg = MinerConfig(fName = fn, epsilon = eps, maxDcSize = 3)
        val full = AdcMiner.mineFromEvidence(fullEv, space, cfg).dcs
        sampleEvs.map { case (frac, sev) =>
          val sample = AdcMiner.mineFromEvidence(sev, space, cfg).dcs
          val m = Metrics.prf(sample, full)
          SampleQualityRow(d.name, fn, eps, frac, m.precision, m.recall, m.f1,
            sample.size, full.size)
        }
      }
    }.flatten

  final case class SampleRuntimeRow(dataset: String, frac: Double,
      nTuples: Int, spaceMs: Long, evidenceMs: Long, enumMs: Long, nDcs: Int) {
    def totalMs: Long = spaceMs + evidenceMs + enumMs
  }

  def samplingRuntime(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[SampleRuntimeRow] =
    for (d <- datasets; frac <- Seq(0.2, 0.4, 0.6, 0.8, 1.0)) yield {
      val df = d.generate(spark, benchRows(d, timingRows))
      val cfg = MinerConfig(fName = "f1", epsilon = 0.1, sampleFraction = frac,
        maxDcSize = 3, seed = 11L)
      val r = AdcMiner.mine(spark, df, cfg)
      SampleRuntimeRow(d.name, frac, r.sampleRows, r.spaceMs, r.evidenceMs, r.enumMs,
        r.dcs.size)
    }

  final case class EpsHatRow(dataset: String, frac: Double, nPairs: Long,
      avgDiff: Double, scaledBySqrtN: Double, nDcs: Int)

  def epsMinusPhat(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[EpsHatRow] = {
    val epsilon = 0.01
    for (d <- datasets; rel = encode(spark, d, benchRows(d, qualityRows));
         space = PredicateSpace.build(rel, 0.3); frac <- Seq(0.05, 0.1, 0.2, 0.4, 0.6, 0.8)) yield {
      val ev = EvidenceBuilder.build(spark, rel.select(Sampler.rows(rel.n, frac, 13L)), space)
      val r = AdcMiner.mineFromEvidence(ev, space,
        MinerConfig(fName = "f1", epsilon = epsilon, maxDcSize = 3))
      val diffs = r.hittingSets.map { hs =>
        epsilon - ev.violationsOf(hs).toDouble / math.max(1L, ev.totalPairs)
      }
      val avg = if (diffs.isEmpty) 0.0 else diffs.sum / diffs.size
      EpsHatRow(d.name, frac, ev.totalPairs, avg,
        avg * math.sqrt(ev.totalPairs.toDouble), r.dcs.size)
    }
  }

  // ------------------------------------------------------------------
  // Fig. 14 + Sec. 8.4: G-recall under spread/skewed noise
  // ------------------------------------------------------------------
  final case class GrecallRow(dataset: String, noise: String, fn: String,
      epsilon: Double, grecall: Double, nDcs: Int)

  def grecall(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[GrecallRow] =
    datasets.flatMap { d =>
      val clean = d.generate(spark, benchRows(d, qualityRows))
      val golden = d.goldenDcs
      val dirty = Seq(
        "spread" -> Noise.spread(clean, 0.004, 17L),
        "skewed" -> Noise.skewed(clean, 0.008, 0.5, 18L))
      // The predicate space is profiled on the clean relation so golden
      // predicates stay in-space (typos barely move the overlap ratios).
      val space = PredicateSpace.build(clean, 0.3)
      dirty.flatMap { case (noiseName, df) =>
        val rel = EncodedRelation.fromDataFrame(df)
        val ev = EvidenceBuilder.build(spark, rel, space, needVios = true)
        for (fn <- Seq("f1", "f2", "f3"); eps <- Seq(0.0, 1e-4, 1e-3, 1e-2, 1e-1)) yield {
          val r = AdcMiner.mineFromEvidence(ev, space,
            MinerConfig(fName = fn, epsilon = eps, maxDcSize = 3))
          GrecallRow(d.name, noiseName, fn, eps,
            Metrics.gRecall(r.dcs, golden), r.dcs.size)
        }
      }
    }

  // ------------------------------------------------------------------
  // Table 5: approximate vs valid DCs
  // ------------------------------------------------------------------
  final case class Table5Row(dataset: String, noise: String, goldenLabel: String,
      adc: String, adcEpsilon: Double, validDc: String)

  /** For each golden DC recovered as an ADC on the dirty data, report it next
    * to a minimal *valid* DC (epsilon = 0) extending it — the paper's
    * "longer, less general" counterpart (Table 5). Neither side mines all DCs:
    * [[isMinimalAdc]] tests the golden DC itself, and [[validExtensions]]
    * enumerates only the valid DCs that contain it.
    */
  def table5(spark: SparkSession, datasets: Seq[BenchDataset]): Seq[Table5Row] = {
    val eps = 1e-3; val maxDcSize = 5
    datasets.flatMap { d =>
      val clean = d.generate(spark, benchRows(d, qualityRows))
      val dirty = Noise.spread(clean, 0.004, 19L)
      val space = PredicateSpace.build(clean, 0.3)
      val rel = EncodedRelation.fromDataFrame(dirty)
      val ev = EvidenceBuilder.build(spark, rel, space)
      d.goldenDcs.zip(d.golden).flatMap { case (g, meta) =>
        val gc = g.canonical
        val hg = gc.preds.flatMap(p => space.indexOf.get(p.complement))
        if (hg.size < gc.size || !isMinimalAdc(ev, space.groupOf, hg, eps, maxDcSize)) None
        else {
          val valid = DenialConstraint.distinctCanonical(
            validExtensions(ev, space.groupOf, hg, maxDcSize).map(space.dcFromHittingSet))
          val extended = valid
            .find(v => gc.preds.subsetOf(v.canonical.preds) && v.preds.size > g.preds.size)
            .orElse(valid.find(v => v.canonical == gc))
          Some(Table5Row(d.name, "spread", meta.label,
            g.pretty(space.colNames), eps,
            extended.map(_.pretty(space.colNames)).getOrElse("(no valid DC extends it)")))
        }
      }
    }
  }

  /** Whether ADCEnum under f1 at `epsilon` with cap `maxSize` outputs `hs`. */
  private[eval] def isMinimalAdc(ev: Evidence, groupOf: Array[Int], hs: Set[Int],
      epsilon: Double, maxSize: Int): Boolean = {
    val f1 = new F1(ev)
    def g(s: Set[Int]): Double = f1.g(ev.violatingClasses(s).iterator)
    hs.size <= maxSize && hs.map(groupOf).size == hs.size &&
      g(hs) <= epsilon && hs.forall(e => g(hs - e) > epsilon)
  }

  /** The minimal hitting sets at ε = 0 (valid DCs) of at most `maxSize`
    * predicates that contain `hg`: hg ∪ X, where X is a minimal hitting set
    * of the classes hg misses over the predicates outside hg's groups, and
    * each member of hg still hits a class no other member hits.
    */
  private[eval] def validExtensions(ev: Evidence, groupOf: Array[Int], hg: Set[Int],
      maxSize: Int): Vector[Set[Int]] = {
    val hgGroups = hg.map(groupOf)
    if (hgGroups.size < hg.size || hg.size > maxSize) return Vector.empty
    val free = new Array[Long](Bits.words(math.max(1, ev.nPreds)))
    (0 until ev.nPreds).foreach(p => if (!hgGroups(groupOf(p))) Bits.set(free, p))
    val missed = ev.violatingClasses(hg)
    val masks = missed.map(c => Array.tabulate(free.length)(w => ev.masks(c)(w) & free(w))).toArray
    val rest = Evidence(ev.nPreds, masks, missed.map(ev.counts(_)).toArray, ev.nTuples, None)
    new AdcEnum(rest.masks, rest.counts, ev.nPreds, groupOf, new F1(rest), 0.0,
      maxSize = maxSize - hg.size).enumerate()
      .map(hg ++ _)
      .filter(h => hg.forall(e => ev.violationsOf(h - e) > 0L))
  }
}
