package repro.core

/** A valid approximation function (Def. 4.3), exposed to the enumeration as
  * the exception rate g(S_φ) = 1 − f(D, S_φ) of a DC, computed from the set
  * of evidence classes *violating* the DC (classes with empty intersection
  * with the DC's hitting set Ŝ_φ). Monotonicity and indifference to
  * redundancy (Defs. 4.1/4.2) translate to: g depends only on the violating
  * classes and shrinks as fewer classes violate — which is property-tested.
  *
  * The enumeration calls only `g(Array[Long], Long)`. `g(Iterator)`,
  * `pairBased`, `gFromPairWeight` and that entry's dispatching default stay
  * because the benchmark harness's `CountingFn` overrides them; one `g`
  * entry replaces them once the harness moves to it.
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

/** The functions read from `vios`, f2 and greedy f3: functions of Fig. 2's
  * v(t), the number of violating pairs tuple t is in. Shared exits, exact
  * with respect to any threshold comparison against ε: g = 0 without
  * violations, and Prop. 5.3 (g1 > 2ε ⇒ g > ε) returns the lower bound g1/2
  * without reading `vios`. Past them, [[tally]] walks the violating classes'
  * `vios` entries once into v(t) and the touched tuples, those with
  * v(t) > 0. Every entry has a count ≥ 1, so the touched tuples are exactly
  * those in some violating pair.
  *
  * Not reentrant: v(t) and the touched list are scratch, cleared after every
  * evaluation, so an instance runs one evaluation at a time.
  */
sealed abstract class ViosFunction(ev: Evidence, epsilonHint: Double) extends ApproxFunction {
  private val totalPairs = math.max(1L, ev.totalPairs).toDouble
  protected val n: Int = math.max(1, ev.nTuples)
  protected val v = new Array[Long](n) // v(t): violating pairs t is in
  protected val touched = new Array[Int](n) // the t with v(t) > 0, in first-touch order
  protected var nTouched = 0

  final def g(viol: Iterator[Int]): Double = {
    val (words, weight) = ApproxFunction.classSet(ev.counts, viol)
    g(words, weight)
  }

  final override def g(viol: Array[Long], weight: Long): Double = {
    if (weight == 0L) return 0.0
    val g1 = weight / totalPairs
    if (g1 > 2.0 * epsilonHint) return g1 / 2.0 // Prop. 5.3 lower bound
    val r = pastExits(viol, weight)
    while (nTouched > 0) { nTouched -= 1; v(touched(nTouched)) = 0L }
    r
  }

  /** g of violating classes `viol`, of pair weight u, past the shared exits. */
  protected def pastExits(viol: Array[Long], u: Long): Double

  /** Adds the `vios` entries of the classes in `viol` into v(t) and lists
    * the touched tuples in `touched(0 until nTouched)`.
    */
  protected final def tally(viol: Array[Long]): Unit = {
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
  }
}

/** f2 (Sec. 5): fraction of tuples involved in no violation; g2 is the
  * fraction of "problematic" tuples, |{t : v(t) > 0}| / |D|.
  */
final class F2(ev: Evidence, epsilonHint: Double = Double.PositiveInfinity)
    extends ViosFunction(ev, epsilonHint) {
  val name = "f2"

  protected def pastExits(viol: Array[Long], u: Long): Double = {
    tally(viol)
    nTouched.toDouble / n
  }
}

/** Greedy replacement for f3 (Fig. 2): sort tuples by the number of
  * violations they participate in, remove greedily until the removed tuples
  * cover the total violation count, and report removed/|D| — a practical
  * surrogate for the NP-hard cardinality-repair measure g3.
  *
  * Past the shared exits, one more exact-by-thresholding one: the covering
  * lower bound (each removed tuple covers ≤ 2(|D|−1) ordered pairs, so
  * ≥ u/(2(|D|−1)) removals are needed).
  *
  * SortTuples runs without a sort. The removal count depends only on the
  * multiset of non-zero v(t), and v(t) ≤ 2(|D|−1), the number of ordered
  * pairs t is in (`EvidenceSpec` checks that Σ_c vios[c][t] = 2(|D|−1)). So
  * a histogram over [1, 2(|D|−1)] holds that multiset, and the walk takes
  * the fewest largest values whose sum covers u, bucket by bucket from the
  * top. The histogram is scratch like v(t).
  */
final class GreedyF3(ev: Evidence, epsilonHint: Double = Double.PositiveInfinity)
    extends ViosFunction(ev, epsilonHint) {
  val name = "f3"
  private val hist = new Array[Int](2 * (n - 1) + 1) // hist(b) = |{t : v(t) = b}|

  protected def pastExits(viol: Array[Long], u: Long): Double = {
    val lb = math.ceil(u / (2.0 * math.max(1, n - 1))) / n
    if (lb > epsilonHint) return lb
    tally(viol)
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
    while (i < nTouched) { hist(v(touched(i)).toInt) = 0; i += 1 }
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
