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
  * @param seed               seed of the sample draw ([[Sampler.rows]]); the
  *                           sample depends only on D's row order and the seed
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
  * `encodeMs` covers the collect and encoding of D, with the one pass that
  * ranks its numeric values, plus the `select` of the sample. `spaceMs`
  * covers the overlap profiling over D's codes and the predicate generation.
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
  * constructor → enumeration. Spark runs only the `collect` of D and the
  * pair-quadratic evidence scan; profiling, sampling and the enumeration run
  * on the driver, the enumeration on its cores.
  */
object AdcMiner {

  /** Mine the minimal ADCs of `df` for (f, ε). With fewer than two (sampled)
    * rows there is no tuple pair, so the result is the single empty DC, which
    * holds vacuously; the same holds for f1, f2 and f3 at ε = 1.
    */
  def mine(spark: SparkSession, df: DataFrame, cfg: MinerConfig): MinerResult = {
    val (rel, collectMs) = timed(EncodedRelation.fromDataFrame(df))
    val (space, spaceMs) = timed(PredicateSpace.build(rel, cfg.overlapThreshold))
    val (sample, selectMs) = timed(rel.select(Sampler.rows(rel.n, cfg.sampleFraction, cfg.seed)))
    val (evidence, evidenceMs) =
      timed(EvidenceBuilder.build(spark, sample, space, ApproxFunction.needsVios(cfg.fName)))
    mineFromEvidence(evidence, space, cfg, enumWorkers(spark))
      .copy(spaceMs = spaceMs, encodeMs = collectMs + selectMs, evidenceMs = evidenceMs)
  }

  /** ADCEnum's worker count under `spark`: the driver's cores, at most the
    * session's default parallelism. */
  def enumWorkers(spark: SparkSession): Int =
    math.max(1, math.min(Runtime.getRuntime.availableProcessors, spark.sparkContext.defaultParallelism))

  /** Enumeration-only stage, reusing a prebuilt evidence set; ADCEnum runs
    * on `workers` workers, each with its own instance of f. */
  def mineFromEvidence(evidence: Evidence, space: PredicateSpace, cfg: MinerConfig,
      workers: Int = 1): MinerResult = {
    def fn() = ApproxFunction(cfg.fName, evidence, cfg.epsilon, cfg.alpha)
    val ((hss, nodes), enumMs) = timed {
      val e = new AdcEnum(evidence.masks, evidence.counts, evidence.nPreds, space.groupOf, fn(),
        cfg.epsilon, cfg.chooseMaxIntersection, cfg.maxDcSize, Vector.fill(workers - 1)(fn()))
      (e.enumerate(), e.nodes)
    }
    val dcs = DenialConstraint.distinctCanonical(hss.map(space.dcFromHittingSet))
    MinerResult(dcs, hss, space, evidence, evidence.nTuples, 0L, 0L, 0L, enumMs, nodes)
  }
}
