package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.util.random.BernoulliCellSampler

/** Tuple sampling for ADC mining (Sec. 7).
  *
  * The estimator p̂ = |E_J| / (|V_J|(|V_J|−1)) of the conflict-graph density
  * is unbiased; Inequality 2 turns a desired full-database threshold ε and
  * error bound α into a sample acceptance criterion — equivalently the
  * adjusted approximation function f1' ([[F1Adjusted]]).
  */
object Sampler {

  /** Uniform tuple sample of (approximately) the given fraction of D, drawn
    * without replacement by a distributed Bernoulli scan that seeds input
    * partition k with `seed + k`, so it depends on D's partitioning ([[rows]] does not).
    */
  def sample(df: DataFrame, fraction: Double, seed: Long): DataFrame = {
    require(fraction > 0.0 && fraction <= 1.0, s"fraction out of (0,1]: $fraction")
    if (fraction >= 1.0) df else df.sample(withReplacement = false, fraction, seed)
  }

  /** Ascending ids of a uniform Bernoulli sample of the rows `0 until n`: Spark's
    * draw run on the driver, so on a one-partition frame it keeps exactly the
    * rows [[sample]] keeps. Fraction 1.0 keeps every row.
    */
  def rows(n: Int, fraction: Double, seed: Long): Array[Int] = {
    require(fraction > 0.0 && fraction <= 1.0, s"fraction out of (0,1]: $fraction")
    val sampler = new BernoulliCellSampler[Int](0.0, fraction)
    sampler.setSeed(seed)
    sampler.sample(Iterator.range(0, n)).toArray
  }

  /** The per-DC sample threshold ε_J^φ of Sec. 7.2: accept φ on the sample
    * when p̂ ≤ threshold. Derived from Inequality 2:
    * (1−p̂) ≥ z·sqrt(p̂(1−p̂)/m) + (1−ε).
    */
  def sampleThreshold(epsilon: Double, pHat: Double, mPairs: Long, alpha: Double): Double = {
    val z = Stats.zFor(alpha)
    epsilon - z * math.sqrt(pHat * (1.0 - pHat) / math.max(1L, mPairs))
  }

  /** True when the DC with sample violation rate p̂ passes Inequality 2,
    * i.e. is an ADC on the full database w.r.t. ε with prob. ≥ 1−α.
    */
  def accept(epsilon: Double, pHat: Double, mPairs: Long, alpha: Double): Boolean =
    pHat <= sampleThreshold(epsilon, pHat, mPairs, alpha)
}
