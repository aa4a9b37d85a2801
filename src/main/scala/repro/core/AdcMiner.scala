package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Timing.timed

/** Configuration of one ADCMiner run (Fig. 1).
  *
  * @param fName              approximation function: f1 | f2 | f3 | f1adj
  * @param epsilon            approximation threshold ε ≥ 0
  * @param sampleFraction     uniform tuple-sample fraction (1.0 = whole D)
  * @param alpha              error bound for the f1adj acceptance (Sec. 7.2)
  * @param overlapThreshold   common-values ratio for comparable columns
  * @param maxDcSize          FASTDC-style cap on predicates per DC
  * @param chooseMaxIntersection ADCEnum's uncovered-set choice (Fig. 10)
  */
final case class MinerConfig(
    fName: String = "f1",
    epsilon: Double = 0.01,
    sampleFraction: Double = 1.0,
    alpha: Double = 0.05,
    overlapThreshold: Double = 0.3,
    seed: Long = 42L,
    maxDcSize: Int = Int.MaxValue,
    chooseMaxIntersection: Boolean = true,
)

/** Result of a run: canonical minimal ADCs plus per-stage wall times.
  * `encodeMs` covers the collect and encoding of the (sampled) relation,
  * which is where a lazy `Sampler.sample` is computed.
  */
final case class MinerResult(
    dcs: Vector[DenialConstraint],
    hittingSets: Vector[Set[Int]],
    space: PredicateSpace,
    evidence: Evidence,
    sampleRows: Int,
    spaceMs: Long,
    encodeMs: Long,
    evidenceMs: Long,
    enumMs: Long,
    enumNodes: Long,
) {
  def totalMs: Long = spaceMs + encodeMs + evidenceMs + enumMs
}

/** ADCMiner (Fig. 1): predicate space generator → sampler → evidence set
  * constructor → enumeration. The pair-quadratic evidence construction runs
  * distributed; profiling and the enumeration run on the driver.
  */
object AdcMiner {

  /** Mine the minimal ADCs of `df` for (f, ε). With fewer than two (sampled)
    * rows there is no tuple pair, so the result is the single empty DC, which
    * holds vacuously; the same holds for f1, f2 and f3 at ε = 1.
    */
  def mine(spark: SparkSession, df: DataFrame, cfg: MinerConfig): MinerResult = {
    val (space, spaceMs) = timed(PredicateSpace.build(df, cfg.overlapThreshold))
    val sampled = Sampler.sample(df, cfg.sampleFraction, cfg.seed)
    mineWithSpace(spark, sampled, space, cfg, spaceMs)
  }

  /** Variant reusing a prebuilt predicate space (sweeps over sample sizes
    * or thresholds profile the full relation once, as the paper does).
    */
  def mineWithSpace(
      spark: SparkSession,
      sampled: DataFrame,
      space: PredicateSpace,
      cfg: MinerConfig,
      spaceMs: Long = 0L): MinerResult = {
    val (rel, encodeMs) = timed(EncodedRelation.fromDataFrame(sampled))
    val (evidence, evidenceMs) =
      timed(EvidenceBuilder.build(spark, rel, space, ApproxFunction.needsVios(cfg.fName)))
    mineFromEvidence(evidence, space, cfg, spaceMs, evidenceMs, rel.n, encodeMs)
  }

  /** Enumeration-only stage, reusing a prebuilt evidence set. */
  def mineFromEvidence(
      evidence: Evidence,
      space: PredicateSpace,
      cfg: MinerConfig,
      spaceMs: Long = 0L,
      evidenceMs: Long = 0L,
      sampleRows: Int = -1,
      encodeMs: Long = 0L): MinerResult = {
    val fn = ApproxFunction(cfg.fName, evidence, cfg.epsilon, cfg.alpha)
    val ((hss, nodes), enumMs) = timed {
      val e = new AdcEnum(evidence.masks, evidence.counts, evidence.nPreds,
        space.groupOf, fn, cfg.epsilon, cfg.chooseMaxIntersection, cfg.maxDcSize)
      (e.enumerate(), e.nodes)
    }
    val dcs = DenialConstraint.distinctCanonical(hss.map(space.dcFromHittingSet))
    MinerResult(dcs, hss, space, evidence,
      if (sampleRows >= 0) sampleRows else evidence.nTuples,
      spaceMs, encodeMs, evidenceMs, enumMs, nodes)
  }
}
