package repro.core

import org.apache.spark.sql.SparkSession

/** Naive evidence-set construction — the AFASTDC-style [11] baseline.
  *
  * Evaluates every predicate of the space independently for every ordered
  * tuple pair (i, j) of its row, with no comparison sharing and no
  * precomputed single-tuple bits. Only this row step differs from
  * [[EvidenceBuilder]]: its scan key is the pair's mask itself (nWords longs,
  * decoded by copying), where the fast builder's is the pair's clue. It runs
  * on the fast builder's upper-triangle scan, which reads only its slices
  * j > i and adds the mirror half by Sat(j, i) = swap(Sat(i, j)), so it
  * produces exactly the same [[Evidence]], classes in the same order, but
  * substantially slower — it is the "evidence construction without bit-level
  * tricks" comparator for the Fig. 7 shape. Sharing that skeleton, it is no
  * independent reference for the mirror step; the tests evaluate every
  * ordered pair on the driver for that.
  */
object NaiveEvidenceBuilder {

  def build(
      spark: SparkSession,
      rel: EncodedRelation,
      space: PredicateSpace,
      needVios: Boolean = false): Evidence = {
    val preds = space.predicates.toArray
    val nWords = Bits.words(preds.length)
    val decode = (keys: Array[Long], at: Int) => java.util.Arrays.copyOfRange(keys, at, at + nWords)
    val swapOf = space.swapOf
    val mirror = (keys: Array[Long], at: Int) => EvidenceBuilder.swapMask(swapOf, keys, at, nWords)
    EvidenceBuilder.scan(spark, rel.n, space, needVios, nWords, (i, out, _) => {
      java.util.Arrays.fill(out, 0L)
      var j = 0
      while (j < rel.n) {
        var p = 0
        while (p < preds.length) {
          if (rel.eval(preds(p), i, j)) out(j * nWords + (p >>> 6)) |= 1L << p
          p += 1
        }
        j += 1
      }
    }, decode, mirror)
  }
}
