package repro.core

import scala.collection.mutable.ArrayBuffer

/** ADCEnum (Figs. 4/5): enumeration of all minimal approximate hitting sets
  * of the evidence set w.r.t. a valid approximation function f and threshold
  * ε — equivalently, of all nontrivial minimal ADCs.
  *
  * Extends MMCS with:
  *  - the approximate base case (g(S) ≤ ε) plus the explicit IsMinimal check;
  *  - a second "do not hit F" recursive branch, guarded by the WillCover
  *    feasibility prune;
  *  - removal of same-group predicates from the candidate list after adding
  *    a predicate (RemoveRedundantPreds), which also guarantees nontrivial
  *    output DCs;
  *  - selection of the uncovered class with the *maximal* candidate
  *    intersection (Sec. 6; `chooseMaxIntersection = false` reverts to
  *    Murakami–Uno's minimal choice for the Fig. 10 experiment).
  *
  * `uncov` and every `crit[p]` are bitsets over class ids, and `predCls(p)`
  * holds the classes containing p (DCFinder's bitset evidence [37]), so
  * UpdateCritUncov is word-parallel: crit[e] = uncov ∧ predCls(e),
  * uncov ∧= ¬predCls(e), crit[u] ∧= ¬predCls(e) for u ∈ S; undo ORs the saved
  * words back. Classes are visited in ascending id, so choices, node count
  * and output do not depend on the representation.
  *
  * MMCS's candidate set cand is a predicate bitset argument of each call, so
  * a node's state follows from its path. The paper's canHit marks are not
  * stored: cand never grows going down the tree, so a class whose mark an
  * ancestor's UpdateCanCover cleared meets no predicate of the current cand
  * either. The choice skips such a class for its empty candidate
  * intersection, and WillCover tests each uncovered class against cand ∧ ¬F.
  * One instance runs one enumeration at a time; results are hitting sets
  * over predicate indices.
  */
final class AdcEnum(
    masks: Array[Array[Long]],
    counts: Array[Long],
    nPreds: Int,
    groupOf: Array[Int],
    fn: ApproxFunction,
    epsilon: Double,
    chooseMaxIntersection: Boolean = true,
    maxSize: Int = Int.MaxValue,
) {

  private val nClasses = masks.length
  private val nWords = Bits.words(math.max(1, nPreds))
  private val cWords = Bits.words(nClasses)
  private def maskOf(ps: Seq[Int]) = { val m = new Array[Long](nWords); ps.foreach(Bits.set(m, _)); m }
  /** The predicates of p's group, p included. */
  private val groupMask =
    Array.tabulate(nPreds)(p => maskOf((0 until nPreds).filter(groupOf(_) == groupOf(p))))
  private val predCls: Array[Array[Long]] = {
    val inv = Array.fill(nPreds)(new Array[Long](cWords))
    for (c <- 0 until nClasses) foreachBit(masks(c).length)(masks(c)(_))(p => Bits.set(inv(p), c))
    inv
  }

  // ---- mutable search state: S, uncov with its weight, crit ----------------
  private val uncov = new Array[Long](cWords)
  private var uncovWeight = 0L // pair weight of uncov
  private val s = ArrayBuffer.empty[Int] // current hitting set
  private val crit = Array.fill(nPreds)(new Array[Long](cWords))
  private val critSize = new Array[Int](nPreds)

  /** Recursion nodes visited — reported in the experiments. */
  var nodes: Long = 0L
  /** Branch counters of the last run: nodes entered through the skip ("do not
    * hit F") and the hit branch (nodes = 1 + skipNodes + hitNodes), skip
    * branches cut by WillCover, and hit candidates e rejected because crit[e]
    * or some crit[u], u ∈ S, was empty.
    */
  var skipNodes, hitNodes, willCoverPrunes, critFailures: Long = 0L

  /** Calls f on the set bits of word(0) … word(nw − 1), ascending. */
  private def foreachBit(nw: Int)(word: Int => Long)(f: Int => Unit): Unit = {
    var w = 0
    while (w < nw) {
      var x = word(w)
      while (x != 0L) { f((w << 6) + java.lang.Long.numberOfTrailingZeros(x)); x &= x - 1 }
      w += 1
    }
  }

  /** Pair weight of the classes in `word`. */
  private def weightOf(word: Int => Long): Long = { var t = 0L; foreachBit(cWords)(word)(t += counts(_)); t }

  // ---- approximation-function plumbing -------------------------------------
  private val gWords = new Array[Long](cWords) // scratch bitset handed to fn.g

  /** g of the DC obtained by dropping e from S: its violating classes are
    * uncov plus the classes for which e is critical. */
  private def gWithout(e: Int): Double = {
    var w = 0
    while (w < cWords) { gWords(w) = uncov(w) | crit(e)(w); w += 1 }
    fn.g(gWords, uncovWeight + weightOf(crit(e)(_)))
  }

  /** WillCover (Fig. 5): g of S ∪ rest, violated by the uncovered classes
    * that meet no predicate of `rest`.
    */
  private def gWillCover(rest: Array[Long]): Double = {
    java.util.Arrays.fill(gWords, 0L)
    var weight = 0L
    foreachBit(cWords)(uncov(_)) { c =>
      if (!Bits.intersects(masks(c), rest)) { Bits.set(gWords, c); weight += counts(c) }
    }
    fn.g(gWords, weight)
  }

  /** IsMinimal (Fig. 5): S minus any single predicate must exceed ε
    * (monotonicity makes single-removal sufficient). */
  private def isMinimal(): Boolean = s.forall(e => gWithout(e) > epsilon)

  // ---- subroutines ----------------------------------------------------------
  /** XORs classes `bits` of word w into crit[u]: sign +1 adds, −1 removes. */
  private def flipCrit(u: Int, w: Int, bits: Long, sign: Int): Unit = {
    crit(u)(w) ^= bits; critSize(u) += sign * java.lang.Long.bitCount(bits)
  }

  /** UpdateCritUncov (Fig. 3): move classes containing e from uncov to
    * crit[e]; strip classes containing e from every crit[u], u ∈ S. Returns
    * the stripped words, row i for the i-th member of S.
    */
  private def updateCritUncov(e: Int): Array[Long] = {
    val pe = predCls(e) // crit[e] is empty on entry: e is not in S
    val stripped = new Array[Long](s.length * cWords)
    var w = 0
    while (w < cWords) {
      val m = uncov(w) & pe(w)
      if (m != 0L) { uncov(w) ^= m; flipCrit(e, w, m, 1) }
      var i = 0
      while (i < s.length) {
        val r = crit(s(i))(w) & pe(w)
        if (r != 0L) { stripped(i * cWords + w) = r; flipCrit(s(i), w, r, -1) }
        i += 1
      }
      w += 1
    }
    uncovWeight -= weightOf(crit(e)(_))
    stripped
  }

  /** Inverse of [[updateCritUncov]] under the same S; `moved` = |crit[e]| and
    * `weight` = uncovWeight before it.
    */
  private def undoCritUncov(e: Int, stripped: Array[Long], moved: Int, weight: Long): Unit = {
    require(critSize(e) == moved, s"crit[$e] mutated below recursion: ${critSize(e)} vs $moved")
    uncovWeight = weight
    var w = 0
    while (w < cWords) {
      val m = crit(e)(w)
      if (m != 0L) { uncov(w) |= m; flipCrit(e, w, m, -1) }
      var i = 0
      while (i < s.length) { val r = stripped(i * cWords + w); if (r != 0L) flipCrit(s(i), w, r, 1); i += 1 }
      w += 1
    }
  }

  /** Choose F ∈ uncov with a non-empty intersection with cand; maximal
    * (default) or minimal intersection size, first in class order on ties.
    * Returns -1 when no candidate can hit any remaining uncovered class —
    * then no extension of S reduces the violation set.
    */
  private def chooseClass(cand: Array[Long]): Int = {
    var best = -1
    var bestScore = if (chooseMaxIntersection) 0 else Int.MaxValue
    foreachBit(cWords)(uncov(_)) { c =>
      val sc = Bits.popcountAnd(masks(c), cand)
      if (sc > 0 && (if (chooseMaxIntersection) sc > bestScore else sc < bestScore)) {
        best = c; bestScore = sc
      }
    }
    best
  }

  // ---- main recursion (Fig. 4) ---------------------------------------------
  private val results = Vector.newBuilder[Set[Int]]

  /** One node. Its skip child gets rest = cand ∧ ¬F; its hit child e gets
    * (rest ∨ passed) ∧ ¬group(e), where `passed` holds the earlier members of
    * cand ∩ F that passed the crit test. `cand` is only read.
    */
  private def rec(cand: Array[Long]): Unit = {
    nodes += 1
    if (fn.g(uncov, uncovWeight) <= epsilon) {
      // Base case: S is an approximate hitting set. Monotonicity makes every
      // proper superset non-minimal, so the branch ends here either way.
      if (isMinimal()) results += s.toSet
      return
    }
    if (s.length >= maxSize) return
    val fCls = chooseClass(cand)
    if (fCls == -1) return
    val fMask = masks(fCls)

    // ---- branch 1: do not hit F (lines 7-12) ----
    val rest = Array.tabulate(nWords)(w => cand(w) & ~fMask(w))
    if (gWillCover(rest) <= epsilon) { skipNodes += 1; rec(rest) } else willCoverPrunes += 1

    // ---- branch 2: hit F (lines 13-22), e over cand ∩ F ascending ----
    val passed = new Array[Long](nWords)
    foreachBit(nWords)(w => cand(w) & fMask(w)) { e =>
      val weight = uncovWeight
      val stripped = updateCritUncov(e)
      val moved = critSize(e)
      // Emptiness is tested on bits: a class of pair count 0 still counts.
      if (moved > 0 && s.forall(critSize(_) > 0)) {
        // RemoveRedundantPreds: same-group predicates would make the DC
        // trivial or redundant (indifference to redundancy).
        val child = Array.tabulate(nWords)(w => (rest(w) | passed(w)) & ~groupMask(e)(w))
        s += e; hitNodes += 1
        rec(child)
        s.remove(s.length - 1)
        Bits.set(passed, e)
      } else critFailures += 1
      undoCritUncov(e, stripped, moved, weight)
    }
  }

  /** Run the enumeration; returns every minimal approximate hitting set
    * exactly once (Thm. 6.1). Repeated calls give the same result.
    */
  def enumerate(): Vector[Set[Int]] = {
    nodes = 0L; skipNodes = 0L; hitNodes = 0L; willCoverPrunes = 0L; critFailures = 0L
    results.clear()
    (0 until nClasses).foreach(Bits.set(uncov, _))
    uncovWeight = counts.sum
    rec(maskOf(0 until nPreds))
    results.result()
  }
}
