package repro.core

/** A valid approximation function (Def. 4.3), exposed to the enumeration as
  * the exception rate g(S_φ) = 1 − f(D, S_φ) of a DC, computed from the set
  * of evidence classes *violating* the DC (classes with empty intersection
  * with the DC's hitting set Ŝ_φ). Monotonicity and indifference to
  * redundancy (Defs. 4.1/4.2) translate to: g depends only on the violating
  * classes and shrinks as fewer classes violate — which is property-tested.
  */
trait ApproxFunction extends Serializable {
  def name: String

  /** Exception rate for a DC violated by exactly the given classes. */
  def g(viol: Iterator[Int]): Double

  /** Exception rate for a DC violated by exactly the classes whose bits are
    * set in `viol`, a bitset over class ids that g only reads; `weight` is
    * their total pair count. Pair-based functions decide from `weight`
    * alone; the others read the class ids.
    */
  def g(viol: Array[Long], weight: Long): Double =
    if (pairBased) gFromPairWeight(weight) else g(Bits.iterator(viol))

  /** True when g depends only on the total violating *pair count*, enabling
    * the enumeration's O(1) incremental evaluation (f1-family).
    */
  def pairBased: Boolean = false

  /** Fast path for pair-based functions: g from the violating pair count. */
  def gFromPairWeight(w: Long): Double =
    throw new UnsupportedOperationException(s"$name is not pair-based")
}

/** f1 (Sec. 5): fraction of ordered tuple pairs satisfying the DC; the
  * measure used to define ADCs in AFASTDC/BFASTDC/DCFinder [11, 36, 37].
  */
final class F1(ev: Evidence) extends ApproxFunction {
  val name = "f1"
  private val total = math.max(1L, ev.totalPairs).toDouble
  override def pairBased: Boolean = true
  override def gFromPairWeight(w: Long): Double = w / total
  def g(viol: Iterator[Int]): Double = {
    var w = 0L
    viol.foreach(w += ev.counts(_))
    gFromPairWeight(w)
  }
}

/** f2 (Sec. 5): fraction of tuples involved in no violation; g2 is the
  * fraction of "problematic" tuples. Needs the `vios` structure.
  *
  * Cheap pre-filter via Prop. 5.3's contrapositive: if g1 > 2ε then g2 > ε,
  * so when the violating-pair fraction already exceeds 2ε we return the
  * lower bound g1/2 (> ε) without materialising the tuple set. Exact w.r.t.
  * any threshold comparison against ε.
  *
  * Not reentrant: an instance holds the tuple set as scratch, reused and
  * cleared by every evaluation, so it runs one evaluation at a time.
  */
final class F2(ev: Evidence, epsilonHint: Double = Double.PositiveInfinity)
    extends ApproxFunction {
  val name = "f2"
  private val totalPairs = math.max(1L, ev.totalPairs).toDouble
  private val n = math.max(1, ev.nTuples).toDouble
  private val seen = new java.util.BitSet(ev.nTuples) // tuples in a violation

  def g(viol: Iterator[Int]): Double = {
    val (words, weight) = ApproxFunction.classSet(ev.counts, viol)
    g(words, weight)
  }

  override def g(viol: Array[Long], weight: Long): Double = {
    if (weight == 0L) return 0.0
    val g1 = weight / totalPairs
    if (g1 > 2.0 * epsilonHint) return g1 / 2.0 // Prop. 5.3 lower bound
    val vios = ev.viosOrFail
    var w = 0
    while (w < viol.length) {
      var x = viol(w)
      while (x != 0L) {
        val vs = vios((w << 6) + java.lang.Long.numberOfTrailingZeros(x))
        var i = 0
        while (i < vs.length) { seen.set(Evidence.tidOf(vs(i))); i += 1 }
        x &= x - 1
      }
      w += 1
    }
    val involved = seen.cardinality()
    seen.clear()
    involved / n
  }
}

/** Greedy replacement for f3 (Fig. 2): sort tuples by the number of
  * violations they participate in, remove greedily until the removed tuples
  * cover the total violation count, and report removed/|D| — a practical
  * surrogate for the NP-hard cardinality-repair measure g3.
  *
  * Two exact-by-thresholding fast paths: Prop. 5.3 (g1 > 2ε ⇒ g3 > ε) and
  * the covering lower bound (each removed tuple covers ≤ 2(|D|−1) ordered
  * pairs, so ≥ u/(2(|D|−1)) removals are needed).
  *
  * SortTuples runs without a sort. The removal count depends only on the
  * multiset of non-zero v(t), and v(t) ≤ 2(|D|−1), the number of ordered
  * pairs t is in (`EvidenceSpec` checks that Σ_c vios[c][t] = 2(|D|−1)). So
  * a histogram over [1, 2(|D|−1)] holds that multiset, and the walk takes
  * the fewest largest values whose sum covers u, bucket by bucket from the
  * top.
  *
  * Not reentrant: an instance holds v(t), the touched tuples and the
  * histogram as scratch, cleared by every evaluation, so it runs one
  * evaluation at a time.
  */
final class GreedyF3(ev: Evidence, epsilonHint: Double = Double.PositiveInfinity)
    extends ApproxFunction {
  val name = "f3"
  private val totalPairs = math.max(1L, ev.totalPairs).toDouble
  private val n = math.max(1, ev.nTuples)
  private val v = new Array[Long](n) // v(t): violating pairs t is in
  private val touched = new Array[Int](n) // the t with v(t) > 0, in first-touch order
  private val hist = new Array[Int](2 * (n - 1) + 1) // hist(b) = |{t : v(t) = b}|

  def g(viol: Iterator[Int]): Double = {
    val (words, weight) = ApproxFunction.classSet(ev.counts, viol)
    g(words, weight)
  }

  override def g(viol: Array[Long], u: Long): Double = {
    if (u == 0L) return 0.0
    val g1 = u / totalPairs
    if (g1 > 2.0 * epsilonHint) return g1 / 2.0 // Prop. 5.3 lower bound
    val lb = math.ceil(u / (2.0 * math.max(1, n - 1))) / n
    if (lb > epsilonHint) return lb
    // SortTuples (Fig. 2): v(t) = number of violations t participates in.
    var nTouched = 0
    val vios = ev.viosOrFail
    var w = 0
    while (w < viol.length) {
      var x = viol(w)
      while (x != 0L) {
        val vs = vios((w << 6) + java.lang.Long.numberOfTrailingZeros(x))
        var i = 0
        while (i < vs.length) {
          val t = Evidence.tidOf(vs(i)); val c = Evidence.cntOf(vs(i))
          if (c != 0L) { // a zero entry would list t in `touched` twice
            if (v(t) == 0L) { touched(nTouched) = t; nTouched += 1 }
            v(t) += c
          }
          i += 1
        }
        x &= x - 1
      }
      w += 1
    }
    var top = 0
    var i = 0
    while (i < nTouched) {
      val b = v(touched(i)).toInt
      hist(b) += 1
      if (b > top) top = b
      i += 1
    }
    // Remove the largest v(t) first: from bucket b, take all its tuples or
    // just the ⌈(u − covered)/b⌉ that complete the cover.
    var covered = 0L
    var removed = 0L
    var b = top
    while (covered < u && b > 0) {
      val h = hist(b)
      if (h != 0) {
        val need = (u - covered + b - 1) / b
        if (need <= h) { removed += need; covered = u }
        else { removed += h; covered += h.toLong * b }
      }
      b -= 1
    }
    i = 0
    while (i < nTouched) { val t = touched(i); hist(v(t).toInt) = 0; v(t) = 0L; i += 1 }
    removed.toDouble / n
  }
}

/** f1' (Sec. 7.2): the sample acceptance function with the confidence
  * correction — g' = p̂ + z_{1-2α}·sqrt(p̂(1−p̂)/m) over the sample's
  * m = |V_J|(|V_J|−1) ordered pairs. Accepting g' ≤ ε on the sample gives
  * the DC probability ≥ 1−α of being an ADC on the full database at ε.
  */
final class F1Adjusted(ev: Evidence, alpha: Double) extends ApproxFunction {
  val name = "f1adj"
  private val m = math.max(1L, ev.totalPairs).toDouble
  private val z = Stats.zFor(alpha)
  override def pairBased: Boolean = true
  override def gFromPairWeight(w: Long): Double = {
    val pHat = w / m
    pHat + z * math.sqrt(pHat * (1.0 - pHat) / m)
  }
  def g(viol: Iterator[Int]): Double = {
    var w = 0L
    viol.foreach(w += ev.counts(_))
    gFromPairWeight(w)
  }
}

object ApproxFunction {

  /** Factory keyed by the names used throughout the experiments. */
  def apply(name: String, ev: Evidence, epsilon: Double, alpha: Double = 0.05): ApproxFunction =
    name match {
      case "f1"    => new F1(ev)
      case "f2"    => new F2(ev, epsilon)
      case "f3"    => new GreedyF3(ev, epsilon)
      case "f1adj" => new F1Adjusted(ev, alpha)
      case other   => throw new IllegalArgumentException(s"unknown approximation function: $other")
    }

  def needsVios(name: String): Boolean = name == "f2" || name == "f3"

  /** The class ids `viol` as a bitset over the classes of `counts`, and
    * their total pair count: the arguments of the bitset entry point of g.
    */
  def classSet(counts: Array[Long], viol: IterableOnce[Int]): (Array[Long], Long) = {
    val words = new Array[Long](Bits.words(counts.length))
    var weight = 0L
    viol.iterator.foreach { c => Bits.set(words, c); weight += counts(c) }
    (words, weight)
  }
}
