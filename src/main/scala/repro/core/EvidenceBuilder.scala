package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One comparison shared by all predicates over an operand pair: a single
  * three-way compare of (colA from sideA, colB from sideB) decides every
  * operator bit in `predIdx`/`ops` at once.
  */
final case class EvalGroup(
    colA: Int, sideA: Int,
    colB: Int, sideB: Int,
    opIds: Array[Int],
    predIdx: Array[Int],
) extends Serializable {
  def isSameTuple: Boolean = sideA == sideB
}

/** The per-pair step of the evidence scan: writes Sat(i, j), the mask of the
  * predicates the ordered pair (t_i, t_j) satisfies, into `out`.
  */
private[core] trait PairMasks extends Serializable {
  def fill(i: Int, j: Int, out: Array[Long]): Unit
}

/** Distributed evidence-set construction (Sec. 4.2, component 3).
  *
  * This is the reproduction's stand-in for DCFinder's [37] evidence builder:
  * the pair-quadratic scan is parallelised over row ranges (RDD
  * mapPartitions against the broadcast columnar relation), comparisons are
  * shared per attribute pair, single-tuple predicate bits are precomputed
  * once per tuple, and per-partition hash aggregation plus a `reduceByKey`
  * produce the distinct-mask bag.
  *
  * Classes, counts and `vios` come from that one scan. A task owns rows i
  * and counts each class's pairs (i, ·) per first endpoint i. By the mirror
  * identity Sat(j, i) = swap(Sat(i, j)), t is a second endpoint in class c
  * as often as a first endpoint in swap(c): vios[c][t] = first[c][t] + first[swap(c)][t].
  */
object EvidenceBuilder {

  /** Derive the shared-comparison groups of a predicate space. */
  def evalGroups(space: PredicateSpace): Array[EvalGroup] =
    space.groupMembers.map { members =>
      val p0 = space.predicates(members(0))
      EvalGroup(
        p0.a.col, p0.a.side, p0.b.col, p0.b.side,
        members.map(i => space.predicates(i).op.id),
        members)
    }

  /** Bits of the single-tuple groups on the given side, per tuple. */
  private def baseMasks(
      rel: EncodedRelation,
      groups: Array[EvalGroup],
      side: Int,
      nWords: Int): Array[Array[Long]] = {
    val same = groups.filter(g => g.isSameTuple && g.sideA == side)
    Array.tabulate(rel.n) { i =>
      val m = new Array[Long](nWords)
      var gi = 0
      while (gi < same.length) {
        val g = same(gi)
        val c = rel.cmp(g.colA, i, g.colB, i)
        var k = 0
        while (k < g.opIds.length) {
          if (Op.byId(g.opIds(k)).evalCmp(c)) Bits.set(m, g.predIdx(k))
          k += 1
        }
        gi += 1
      }
      m
    }
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
    val cross = groups.filter(!_.isSameTuple)
    val base0 = baseMasks(rel, groups, 0, nWords)
    val base1 = baseMasks(rel, groups, 1, nWords)
    scan(spark, rel.n, space, needVios, (i, j, out) => {
      val bi = base0(i); val bj = base1(j)
      var w = 0
      while (w < out.length) { out(w) = bi(w) | bj(w); w += 1 }
      var gi = 0
      while (gi < cross.length) {
        val g = cross(gi)
        val ri = if (g.sideA == 0) i else j
        val rj = if (g.sideB == 0) i else j
        val c = rel.cmp(g.colA, ri, g.colB, rj)
        var k = 0
        while (k < g.opIds.length) {
          if (Op.byId(g.opIds(k)).evalCmp(c)) Bits.set(out, g.predIdx(k))
          k += 1
        }
        gi += 1
      }
    })
  }

  /** The pair scan shared by both builders: one Spark job over the ordered
    * pairs of `n` tuples, `masks` being the per-pair step. A task keeps, per
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
        val scratch = new Array[Long](nWords)
        rows.foreach { i =>
          var j = 0
          while (j < n) {
            if (j != i) {
              pairMasks.fill(i, j, scratch)
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
