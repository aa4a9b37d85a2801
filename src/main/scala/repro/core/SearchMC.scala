package repro.core

import scala.collection.mutable.ArrayBuffer

/** SearchMinimalCovers — the enumeration used by FASTDC/AFASTDC [11] and
  * adopted unchanged by BFASTDC [36] and DCFinder [37]; the baseline the
  * paper compares ADCEnum against (Figs. 6/9).
  *
  * Depth-first search over predicate subsets: at every node candidates are
  * (re)ordered by their count-weighted coverage of the still-uncovered
  * evidence classes and explored with tail-candidates only (so each subset
  * is visited at most once); the AFASTDC base case accepts a cover when the
  * uncovered pair fraction is within ε. Covers are post-filtered for
  * f-minimality and deduplicated, as in the original's minimization pass.
  */
final class SearchMC(
    masks: Array[Array[Long]],
    counts: Array[Long],
    nPreds: Int,
    groupOf: Array[Int],
    fn: ApproxFunction,
    epsilon: Double,
    maxSize: Int = Int.MaxValue,
) {

  private val nClasses = masks.length
  private val nWords = Bits.words(math.max(1, nPreds))
  private val cWords = Bits.words(nClasses)

  /** Recursion nodes visited — reported in the experiments. */
  var nodes: Long = 0L

  private def g(uncov: Array[Int]): Double = {
    val (words, weight) = ApproxFunction.classSet(counts, uncov)
    fn.g(words, weight)
  }

  def enumerate(): Vector[Set[Int]] = {
    nodes = 0L
    val found = ArrayBuffer.empty[Set[Int]]
    val cov = new Array[Long](nPreds) // scratch: per-candidate coverage

    def rec(s: List[Int], uncov: Array[Int], cands: Array[Int]): Unit = {
      nodes += 1
      if (g(uncov) <= epsilon) { found += s.toSet; return }
      if (s.length >= maxSize || cands.isEmpty) return
      val candMask = new Array[Long](nWords)
      cands.foreach(Bits.set(candMask, _))
      // One word-level pass over the uncovered classes: per-candidate
      // count-weighted coverage and the unreachable-weight feasibility prune.
      cands.foreach(cov(_) = 0L)
      val unreachable = new Array[Long](cWords)
      var unreachableW = 0L
      var ci = 0
      while (ci < uncov.length) {
        val m = masks(uncov(ci)); val cnt = counts(uncov(ci))
        var any = false
        var w = 0
        while (w < nWords) {
          var bits = m(w) & candMask(w)
          if (bits != 0L) any = true
          while (bits != 0L) {
            cov((w << 6) + java.lang.Long.numberOfTrailingZeros(bits)) += cnt
            bits &= bits - 1
          }
          w += 1
        }
        if (!any) { Bits.set(unreachable, uncov(ci)); unreachableW += cnt }
        ci += 1
      }
      // Feasibility prune: even taking every remaining candidate must reach ε.
      if (fn.g(unreachable, unreachableW) > epsilon) return
      // Dynamic ordering by coverage, as in FASTDC's SearchMinimalCovers.
      val ordered = cands.sortBy(p => (-cov(p), p))
      var i = 0
      while (i < ordered.length) {
        val p = ordered(i)
        val rest = ordered.drop(i + 1).filter(q => groupOf(q) != groupOf(p))
        val unc2 = uncov.filter(c => !Bits.contains(masks(c), p))
        rec(p :: s, unc2, rest)
        i += 1
      }
    }

    rec(Nil, (0 until nClasses).toArray, (0 until nPreds).toArray)

    // Minimization pass: drop non-minimal covers, deduplicate.
    val distinct = found.distinct
    val minimal = distinct.filter { cover =>
      cover.forall { e =>
        g((0 until nClasses).toArray.filter(c =>
          !(cover - e).exists(Bits.contains(masks(c), _)))) > epsilon
      }
    }
    minimal.toVector
  }
}
