package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The op-bit table of one comparison group: a single three-way compare of
  * (colA of tuple sideA, colB of tuple sideB) decides every predicate over
  * that operand pair. For each mask word `words(k)` the group touches,
  * `bits(3k)`, `bits(3k + 1)` and `bits(3k + 2)` are the OR of the member
  * bits that hold when the compare is < 0, = 0 and > 0.
  */
final case class EvalGroup(
    colA: Int, sideA: Int,
    colB: Int, sideB: Int,
    words: Array[Int],
    bits: Array[Long],
) extends Serializable {
  def isSameTuple: Boolean = sideA == sideB

  /** The bits of word `words(k)` for compare result `c`. */
  def bitsOf(k: Int, c: Int): Long = bits(3 * k + (if (c < 0) 0 else if (c == 0) 1 else 2))
}

/** The row step of the evidence scan: writes Sat(i, j), the mask of the
  * predicates the ordered pair (t_i, t_j) satisfies, for every j into slice
  * j of `out` (words j·nWords until (j + 1)·nWords). Slice i is ignored.
  */
private[core] trait PairMasks extends Serializable {
  def fill(i: Int, out: Array[Long]): Unit
}

/** Distributed evidence-set construction (Sec. 4.2, component 3).
  *
  * This is the reproduction's stand-in for DCFinder's [37] evidence builder:
  * the pair-quadratic scan is parallelised over row ranges (RDD
  * mapPartitions against the broadcast columnar relation), and
  * per-partition hash aggregation plus a `reduceByKey` produce the
  * distinct-mask bag. Its row step works a row i at a time: single-tuple
  * bits come from base masks precomputed once per tuple, and each
  * cross-tuple comparison group is one tight loop over the primitive column
  * of t', ORing the group's precomputed op bits for the compare's sign into
  * every pair's mask.
  *
  * Classes, counts and `vios` come from that one scan. A task owns rows i
  * and counts each class's pairs (i, ·) per first endpoint i. By the mirror
  * identity Sat(j, i) = swap(Sat(i, j)), t is a second endpoint in class c
  * as often as a first endpoint in swap(c): vios[c][t] = first[c][t] + first[swap(c)][t].
  */
object EvidenceBuilder {

  /** Derive the comparison groups of a predicate space with their op bits. */
  def evalGroups(space: PredicateSpace): Array[EvalGroup] =
    space.groupMembers.map { members =>
      val p0 = space.predicates(members(0))
      val words = members.map(_ >>> 6).distinct.sorted
      val bits = new Array[Long](3 * words.length)
      for (p <- members; (c, t) <- Seq(-1, 0, 1).zipWithIndex if space.predicates(p).op.evalCmp(c))
        bits(3 * words.indexOf(p >>> 6) + t) |= 1L << p
      EvalGroup(p0.a.col, p0.a.side, p0.b.col, p0.b.side, words, bits)
    }

  /** Bits of the single-tuple groups on the given side: slice i of the
    * result is tuple i's mask.
    */
  private def baseMasks(
      rel: EncodedRelation,
      groups: Array[EvalGroup],
      side: Int,
      nWords: Int): Array[Long] = {
    val m = new Array[Long](rel.n * nWords)
    for (g <- groups if g.isSameTuple && g.sideA == side; i <- 0 until rel.n) {
      val c = rel.cmp(g.colA, i, g.colB, i)
      g.words.indices.foreach(k => m(i * nWords + g.words(k)) |= g.bitsOf(k, c))
    }
    m
  }

  /** OR the bits of cross group `g` for every pair (i, j) into slice j. */
  private def orCross(rel: EncodedRelation, g: EvalGroup, i: Int, out: Array[Long], nWords: Int): Unit =
    (rel.cols(g.colA), rel.cols(g.colB)) match {
      case (NumCol(xs), NumCol(ys)) =>
        val x = xs(i)
        var k = 0
        while (k < g.words.length) {
          val lt = g.bits(3 * k); val eq = g.bits(3 * k + 1); val gt = g.bits(3 * k + 2)
          var o = g.words(k); var j = 0
          while (j < ys.length) {
            val c = java.lang.Double.compare(x, ys(j))
            out(o) |= (if (c < 0) lt else if (c == 0) eq else gt)
            o += nWords; j += 1
          }
          k += 1
        }
      case (StrCol(xs), StrCol(ys)) =>
        val x = xs(i)
        var k = 0
        while (k < g.words.length) {
          val lt = g.bits(3 * k); val eq = g.bits(3 * k + 1); val gt = g.bits(3 * k + 2)
          var o = g.words(k); var j = 0
          while (j < ys.length) {
            val c = java.lang.Integer.compare(x, ys(j))
            out(o) |= (if (c < 0) lt else if (c == 0) eq else gt)
            o += nWords; j += 1
          }
          k += 1
        }
      case _ =>
        throw new IllegalArgumentException(
          s"cannot compare ${rel.names(g.colA)} with ${rel.names(g.colB)}: different kinds")
    }

  /** Build Evi(D) for the encoded relation; with `needVios`, also the
    * per-class, per-tuple violation counts that f2/f3 need.
    */
  def build(
      spark: SparkSession,
      rel: EncodedRelation,
      space: PredicateSpace,
      needVios: Boolean = false): Evidence = {
    val nWords = Bits.words(space.size)
    val groups = evalGroups(space)
    // Normal form puts t before t', so every cross group compares t.A with t'.B.
    val cross = groups.filter(!_.isSameTuple)
    require(cross.forall(g => g.sideA == 0 && g.sideB == 1), "cross group not in normal form")
    val base0 = baseMasks(rel, groups, 0, nWords)
    val base1 = baseMasks(rel, groups, 1, nWords)
    scan(spark, rel.n, space, needVios, (i, out) => {
      System.arraycopy(base1, 0, out, 0, out.length)
      var w = 0
      while (w < nWords) {
        val b = base0(i * nWords + w)
        if (b != 0L) { var o = w; while (o < out.length) { out(o) |= b; o += nWords } }
        w += 1
      }
      var gi = 0
      while (gi < cross.length) { orCross(rel, cross(gi), i, out, nWords); gi += 1 }
    })
  }

  /** The pair scan shared by both builders: one Spark job over the ordered
    * pairs of `n` tuples, `masks` being the row step. A task fills one
    * n × nWords row buffer per row i and hashes its slices j ≠ i. It keeps, per
    * class in order of first appearance, a tally `[count, first-endpoint
    * entries…]` that travels with the mask through the `reduceByKey`. An
    * entry is an [[Evidence.pack]] of (i, pairs (i, ·) in the class), kept
    * only with `needVios`. Class ids are the `collect` order.
    */
  private[core] def scan(
      spark: SparkSession,
      n: Int,
      space: PredicateSpace,
      needVios: Boolean,
      masks: PairMasks): Evidence = {
    val nWords = Bits.words(space.size)
    val sc = spark.sparkContext
    val bMasks = sc.broadcast(masks)
    val classes: Array[(ArraySeq[Long], Array[Long])] = sc
      .parallelize(0 until n, math.max(1, math.min(n, sc.defaultParallelism * 4)))
      .mapPartitions { rows =>
        val pairMasks = bMasks.value
        val localId = mutable.HashMap.empty[ArraySeq[Long], Int]
        var tallies = new Array[Array[Long]](64)
        var lens = new Array[Int](64)
        // Per task: under local[*] every task shares one deserialised `pairMasks`.
        val row = new Array[Long](Math.multiplyExact(n, nWords))
        val scratch = new Array[Long](nWords)
        rows.foreach { i =>
          pairMasks.fill(i, row)
          var j = 0
          while (j < n) {
            if (j != i) {
              System.arraycopy(row, j * nWords, scratch, 0, nWords)
              var id = localId.getOrElse(ArraySeq.unsafeWrapArray(scratch), -1)
              if (id < 0) {
                id = localId.size
                localId.update(ArraySeq.unsafeWrapArray(scratch.clone()), id)
                if (id == tallies.length) {
                  tallies = java.util.Arrays.copyOf(tallies, 2 * id)
                  lens = java.util.Arrays.copyOf(lens, 2 * id)
                }
                tallies(id) = new Array[Long](if (needVios) 4 else 1)
                lens(id) = 1
              }
              var t = tallies(id)
              t(0) += 1L
              if (needVios) {
                // Rows come in order: row i's entry, if any, is the last one.
                val last = lens(id) - 1
                if (last > 0 && Evidence.tidOf(t(last)) == i) t(last) += 1L
                else {
                  if (lens(id) == t.length) { t = java.util.Arrays.copyOf(t, 2 * t.length); tallies(id) = t }
                  t(lens(id)) = Evidence.pack(i, 1L)
                  lens(id) += 1
                }
              }
            }
            j += 1
          }
        }
        localId.iterator.map { case (mask, id) => mask -> java.util.Arrays.copyOf(tallies(id), lens(id)) }
      }
      .reduceByKey { (a, b) =>
        val m = java.util.Arrays.copyOf(a, a.length + b.length - 1)
        m(0) = a(0) + b(0)
        System.arraycopy(b, 1, m, a.length, b.length - 1)
        m
      }
      .collect()
    bMasks.destroy()

    val classMasks = classes.map(_._1.toArray)
    val tallies = classes.map(_._2)
    val vios = if (needVios) Some(mirror(space, classMasks, tallies, n)) else None
    Evidence(space.size, classMasks, tallies.map(_(0)), n, vios)
  }

  /** vios[c][t] = first[c][t] + first[swap(c)][t], summed in one n-sized
    * scratch array. A class that is its own mirror counts its entries twice.
    */
  private def mirror(
      space: PredicateSpace,
      classMasks: Array[Array[Long]],
      tallies: Array[Array[Long]],
      n: Int): Array[Array[Long]] = {
    val classOf = classMasks.indices.map(c => ArraySeq.unsafeWrapArray(classMasks(c)) -> c).toMap
    val v = new Array[Long](n)
    classMasks.indices.map { c =>
      val swapped = new Array[Long](classMasks(c).length)
      (0 until space.size).foreach { p =>
        if (Bits.contains(classMasks(c), p)) Bits.set(swapped, space.swapOf(p))
      }
      val both = Array(tallies(c), tallies(classOf(ArraySeq.unsafeWrapArray(swapped))))
      for (entries <- both; k <- 1 until entries.length)
        v(Evidence.tidOf(entries(k))) += Evidence.cntOf(entries(k))
      // Each tid once, in order of appearance; its slot is cleared on the way.
      val out = Array.newBuilder[Long]
      for (entries <- both; k <- 1 until entries.length) {
        val t = Evidence.tidOf(entries(k))
        if (v(t) != 0L) { out += Evidence.pack(t, v(t)); v(t) = 0L }
      }
      out.result()
    }.toArray
  }
}
