package repro.core

/** Bit-twiddling helpers over predicate bitmasks (Array[Long] words). */
object Bits {
  def words(nBits: Int): Int = (nBits + 63) >>> 6

  def contains(mask: Array[Long], bit: Int): Boolean =
    (mask(bit >>> 6) & (1L << bit)) != 0L

  def set(mask: Array[Long], bit: Int): Unit =
    mask(bit >>> 6) |= (1L << bit)

  def intersects(a: Array[Long], b: Array[Long]): Boolean = {
    var w = 0
    while (w < a.length) { if ((a(w) & b(w)) != 0L) return true; w += 1 }
    false
  }

  def popcountAnd(a: Array[Long], b: Array[Long]): Int = {
    var w = 0; var c = 0
    while (w < a.length) { c += java.lang.Long.bitCount(a(w) & b(w)); w += 1 }
    c
  }

  /** The set bits of `mask`, ascending. */
  def iterator(mask: Array[Long]): Iterator[Int] = new Iterator[Int] {
    private var w = 0
    private var x = if (mask.isEmpty) 0L else mask(0)
    def hasNext: Boolean = {
      while (x == 0L && w + 1 < mask.length) { w += 1; x = mask(w) }
      x != 0L
    }
    def next(): Int = {
      if (!hasNext) throw new NoSuchElementException("no more set bits")
      val bit = (w << 6) + java.lang.Long.numberOfTrailingZeros(x)
      x &= x - 1
      bit
    }
  }
}

/** The evidence set Evi(D) under bag semantics (Sec. 3): each *distinct*
  * satisfied-predicate set Sat(t,t') is stored once as a bitmask over the
  * predicate space, together with its number of occurrences among all
  * ordered tuple pairs (t != t').
  *
  * `vios` (Fig. 2) optionally stores, per evidence class S, the tuples
  * involved in pairs of that class with their pair counts — packed as
  * (tupleId << 32 | count) longs — which drives the f2 and greedy-f3
  * approximation functions.
  */
final case class Evidence(
    nPreds: Int,
    masks: Array[Array[Long]],
    counts: Array[Long],
    nTuples: Int,
    vios: Option[Array[Array[Long]]],
) extends Serializable {

  require(masks.length == counts.length, "masks/counts length mismatch")
  vios.foreach(v => require(v.length == masks.length, "vios length mismatch"))

  /** Number of distinct evidence classes (the n of the complexity analysis). */
  def nClasses: Int = masks.length

  /** Total number of ordered tuple pairs |D|(|D|-1) — the f1 denominator
    * (the paper's worked example counts ordered distinct pairs).
    */
  def totalPairs: Long = nTuples.toLong * (nTuples - 1)

  def has(cls: Int, pred: Int): Boolean = Bits.contains(masks(cls), pred)

  /** Pair count of the classes with an empty intersection with `hs` — i.e.
    * the number of ordered pairs violating the DC whose hitting set is `hs`.
    */
  def violationsOf(hs: Set[Int]): Long = violatingClasses(hs).foldLeft(0L)(_ + counts(_))

  /** Indices of classes with empty intersection with `hs`. */
  def violatingClasses(hs: Set[Int]): Vector[Int] =
    (0 until nClasses).filter(c => !hs.exists(has(c, _))).toVector

  /** `vios`, failing loudly for evidence built without it. */
  def viosOrFail: Array[Array[Long]] =
    vios.getOrElse(throw new IllegalStateException(
      "evidence built without vios — rebuild with needVios=true for f2/f3"))

  def viosOf(cls: Int): Array[Long] = viosOrFail(cls)

  /** Digest of the bag of (mask, count) classes: the sum of one 64-bit hash
    * per class, so it ignores class order, and it ignores `vios`. Builders
    * that produce the same evidence bag agree on it whatever order their
    * classes come in. (A plain `counts.sum` is always |D|(|D|-1).)
    */
  def checksum: Long = {
    var sum = 0L
    var c = 0
    while (c < masks.length) {
      var h = Evidence.mix(counts(c))
      masks(c).foreach(w => h = Evidence.mix(h ^ w))
      sum += h
      c += 1
    }
    sum
  }
}

object Evidence {
  /** SplitMix64 finaliser. */
  private def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def tidOf(packed: Long): Int = (packed >>> 32).toInt
  def cntOf(packed: Long): Long = packed & 0xffffffffL
  def pack(tid: Int, cnt: Long): Long = (tid.toLong << 32) | (cnt & 0xffffffffL)
}
