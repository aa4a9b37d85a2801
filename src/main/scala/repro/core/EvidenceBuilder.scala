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
  * mapPartitions against the broadcast columnar relation), each task
  * hash-aggregates its pairs into a class table, and the driver merges the
  * tables in partition order into the distinct-mask bag, with no shuffle.
  * Class ids are first appearance in row-major (i, j) order, so they do not
  * depend on the partitioning or the Spark master; the driver holds at most
  * one class table per partition during the merge. Its row step works a
  * row i at a time: single-tuple bits come from base masks precomputed once
  * per tuple, and each cross-tuple comparison group is one tight loop over
  * the primitive column of t', ORing the group's precomputed op bits for the
  * compare's sign into every pair's mask.
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

  /** The pair scan shared by both builders: one Spark job, with no shuffle,
    * over the ordered pairs of `n` tuples, `masks` being the row step. A task
    * owns a contiguous ascending range of rows i, fills one n × nWords row
    * buffer per row and hashes its slices j ≠ i. Per class, in order of first
    * appearance, it keeps a tally `[count, first-endpoint entries…]`; an
    * entry is an [[Evidence.pack]] of (i, pairs (i, ·) in the class), kept
    * only with `needVios`. The task returns its k masks as one flat array and
    * its k tallies. The driver merges these records in partition order, so
    * class ids are first appearance in row-major (i, j) order whatever the
    * partitioning, and every tally's entries stay tid-ascending. The merge
    * holds at most one class table per partition.
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
    val parts: Array[(Array[Long], Array[Array[Long]])] = sc
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
        val flat = new Array[Long](localId.size * nWords)
        localId.foreach { case (mask, id) => mask.copyToArray(flat, id * nWords) }
        val local = Array.tabulate(localId.size)(id => java.util.Arrays.copyOf(tallies(id), lens(id)))
        Iterator.single(flat -> local)
      }
      .collect()
    bMasks.destroy()

    // Partition order is row order: a class's id is the order of its first appearance.
    val classOf = mutable.HashMap.empty[ArraySeq[Long], Int]
    val classMasks = mutable.ArrayBuffer.empty[Array[Long]]
    val tallies = mutable.ArrayBuffer.empty[Array[Long]]
    for ((flat, local) <- parts; k <- local.indices) {
      val mask = java.util.Arrays.copyOfRange(flat, k * nWords, (k + 1) * nWords)
      val c = classOf.getOrElseUpdate(ArraySeq.unsafeWrapArray(mask),
        { classMasks += mask; tallies += Array(0L); tallies.length - 1 })
      // Counts add up; first-endpoint entries append, so tids stay ascending.
      val a = tallies(c); val b = local(k)
      val m = java.util.Arrays.copyOf(a, a.length + b.length - 1)
      m(0) = a(0) + b(0)
      System.arraycopy(b, 1, m, a.length, b.length - 1)
      tallies(c) = m
    }
    val vios = if (needVios) Some(mirror(space, classOf, classMasks, tallies)) else None
    Evidence(space.size, classMasks.toArray, tallies.map(_(0)).toArray, n, vios)
  }

  /** vios[c][t] = first[c][t] + first[swap(c)][t]: a merge of the two
    * tid-ascending entry lists, so the result is tid-ascending too. A class
    * that is its own mirror counts its entries twice.
    */
  private def mirror(
      space: PredicateSpace,
      classOf: collection.Map[ArraySeq[Long], Int],
      classMasks: collection.IndexedSeq[Array[Long]],
      tallies: collection.IndexedSeq[Array[Long]]): Array[Array[Long]] =
    classMasks.indices.map { c =>
      val mask = classMasks(c)
      val swapped = new Array[Long](mask.length)
      for (w <- mask.indices) {
        var bits = mask(w)
        while (bits != 0L) {
          Bits.set(swapped, space.swapOf(w * 64 + java.lang.Long.numberOfTrailingZeros(bits)))
          bits &= bits - 1
        }
      }
      val a = tallies(c); val b = tallies(classOf(ArraySeq.unsafeWrapArray(swapped)))
      val out = Array.newBuilder[Long]
      var x = 1; var y = 1
      while (x < a.length || y < b.length) {
        val ta = if (x < a.length) Evidence.tidOf(a(x)) else Int.MaxValue
        val tb = if (y < b.length) Evidence.tidOf(b(y)) else Int.MaxValue
        val t = math.min(ta, tb)
        var cnt = 0L
        if (ta == t) { cnt += Evidence.cntOf(a(x)); x += 1 }
        if (tb == t) { cnt += Evidence.cntOf(b(y)); y += 1 }
        out += Evidence.pack(t, cnt)
      }
      out.result()
    }.toArray
}
