package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** One comparison group: the predicates over the operand pair (colA of tuple
  * sideA, colB of tuple sideB), which a single three-way compare decides.
  * `states(t)` is the state code of compare outcome t (0 <, 1 =, 2 >): the
  * index of the members' mask at t among the group's distinct masks, in that
  * order. Two outcomes share a code exactly when they set the same
  * predicates, so a string group's < and > are one "≠" state; codes are 0, 1
  * or 2. `masks(s)` is the mask, over the whole space, of the members that
  * hold in state s.
  */
final case class EvalGroup(
    colA: Int, sideA: Int,
    colB: Int, sideB: Int,
    states: Array[Int],
    masks: Array[Array[Long]],
) extends Serializable {
  def isSameTuple: Boolean = sideA == sideB
}

/** The row step of a pair scan: writes the key of the ordered pair
  * (t_i, t_j) for every j into slice j of `out` (words j·w until (j + 1)·w,
  * w the scan's key width). Slice i is ignored.
  */
private[core] trait PairKeys extends Serializable {
  def fill(i: Int, out: Array[Long]): Unit
}

/** Distinct keys of `width` longs, numbered 0, 1, … in order of first
  * insertion, in an open-addressing table with linear probing.
  */
private[core] final class KeyTable(width: Int) {
  private var ids = new Array[Int](64) // id + 1 of the slot's key, 0 = empty
  private var slotKeys = new Array[Long](64 * width)
  private var shift = 64 - 6 // slot = top log2(ids.length) bits of the hash
  private var n = 0

  def size: Int = n

  /** The keys in id order: key id is `keys(id·width until (id + 1)·width)`. */
  def keys: Array[Long] = {
    val out = new Array[Long](n * width)
    var s = 0
    while (s < ids.length) {
      if (ids(s) != 0) System.arraycopy(slotKeys, s * width, out, (ids(s) - 1) * width, width)
      s += 1
    }
    out
  }

  /** The id of the key at `src(at until at + width)`, inserted if new. */
  def add(src: Array[Long], at: Int): Int = {
    val s = slotOf(src, at)
    if (ids(s) != 0) ids(s) - 1
    else {
      System.arraycopy(src, at, slotKeys, s * width, width)
      n += 1
      ids(s) = n
      if (2 * n > ids.length) grow()
      n - 1
    }
  }

  /** The id of the key at `src(at until at + width)`, or −1. */
  def find(src: Array[Long], at: Int): Int = ids(slotOf(src, at)) - 1

  /** The slot holding the key, or the empty slot where it would go. */
  private def slotOf(src: Array[Long], at: Int): Int = {
    val m = ids.length - 1
    if (width == 1) { // the clue scan's case, without the loops over key words
      val key = src(at)
      var s = ((key * 0x9e3779b97f4a7c15L) >>> shift).toInt
      while (ids(s) != 0 && slotKeys(s) != key) s = (s + 1) & m
      s
    } else {
      var h = 0L
      var w = 0
      while (w < width) { h = (h ^ src(at + w)) * 0x9e3779b97f4a7c15L; w += 1 }
      var s = (h >>> shift).toInt
      while (ids(s) != 0 &&
          !java.util.Arrays.equals(slotKeys, s * width, (s + 1) * width, src, at, at + width))
        s = (s + 1) & m
      s
    }
  }

  private def grow(): Unit = {
    val (oldIds, oldKeys) = (ids, slotKeys)
    ids = new Array[Int](2 * oldIds.length)
    slotKeys = new Array[Long](2 * oldKeys.length)
    shift -= 1
    var o = 0
    while (o < oldIds.length) {
      if (oldIds(o) != 0) {
        val s = slotOf(oldKeys, o * width)
        ids(s) = oldIds(o)
        System.arraycopy(oldKeys, o * width, slotKeys, s * width, width)
      }
      o += 1
    }
  }
}

/** The position list index (PLI) of a string column: its rows grouped by
  * code, codes ascending and rows ascending within a cluster. The
  * [[EncodedRelation.Null]] code is a cluster like any other, so null = null.
  */
private[core] final class Pli private (val rows: Array[Int], codes: Array[Int], starts: Array[Int])
    extends Serializable {

  /** The cluster of rows whose code is `code`: `rows(from until until)`,
    * packed as from << 32 | until; empty when no row has that code.
    */
  def cluster(code: Int): Long = {
    val c = java.util.Arrays.binarySearch(codes, code)
    if (c < 0) 0L else (starts(c).toLong << 32) | starts(c + 1)
  }
}

private[core] object Pli {
  def apply(codes: Array[Int]): Pli = {
    val sorted = Array.tabulate(codes.length)(r => (codes(r).toLong << 32) | r).sorted
    def code(r: Int) = (sorted(r) >> 32).toInt
    val starts = sorted.indices.filter(r => r == 0 || code(r) != code(r - 1)).toArray
    new Pli(sorted.map(_.toInt), starts.map(code), starts :+ sorted.length)
  }
}

/** The clue of an ordered pair, after FastADC's pair clue (Xiao et al.,
  * PVLDB 2022): 2 bits of state per comparison group, group g at bits
  * 2(g mod 32) of word g / 32, so a clue is `width` = ⌈groups/32⌉ longs
  * (at least one). A state is an [[EvalGroup.states]] code, so a clue and
  * the pair's mask determine each other for a given space, and [[decode]]
  * ORs each group's [[EvalGroup.masks]] of its state.
  */
private[core] final class Clues(space: PredicateSpace) {
  val groups: Array[EvalGroup] = EvidenceBuilder.evalGroups(space)
  val width: Int = math.max(1, (groups.length + 31) >>> 5)
  private val nWords = Bits.words(space.size)

  /** The mask of the clue at `keys(at until at + width)`. */
  def decode(keys: Array[Long], at: Int): Array[Long] = {
    val mask = new Array[Long](nWords)
    var gi = 0
    while (gi < groups.length) {
      val m = groups(gi).masks(((keys(at + (gi >>> 5)) >>> ((gi & 31) << 1)) & 3L).toInt)
      var w = 0
      while (w < nWords) { mask(w) |= m(w); w += 1 }
      gi += 1
    }
    mask
  }

  /** The clue-writing row step over `rel`. Each tuple has a base clue per
    * side with its single-tuple groups' states; t′'s also holds the "≠"
    * state of every string cross group. Row i starts from t_i's side-0 base
    * ORed with each t_j's side-1 base. A numeric cross group then costs one
    * compare and one shift-OR per pair, the compare a branch-free int
    * difference of the two cells' codes, which rank the values in
    * `Double.compare` order ([[EncodedRelation]]). A string cross group
    * t.A, t′.B flips to "=" only the rows of t_i's cluster in B's PLI, so
    * its cost is the cluster's size, not n.
    */
  def rowStep(rel: EncodedRelation): PairKeys = {
    val n = rel.n
    val k = width
    val base = Array.fill(2)(new Array[Long](Math.multiplyExact(n, k)))
    val num = Array.newBuilder[NumCross]
    val str = Array.newBuilder[StrCross]
    val plis = mutable.HashMap.empty[Int, Pli]
    for ((g, gi) <- groups.zipWithIndex) {
      val w = gi >>> 5
      val sh = (gi & 31) << 1
      if (g.isSameTuple) {
        for (i <- 0 until n) {
          val t = Integer.signum(rel.cmp(g.colA, i, g.colB, i)) + 1
          base(g.sideA)(i * k + w) |= g.states(t).toLong << sh
        }
      } else {
        // Normal form puts t before t', so every cross group compares t.A with t'.B.
        require(g.sideA == 0 && g.sideB == 1, "cross group not in normal form")
        val (xs, ys) = (rel.cols(g.colA), rel.cols(g.colB))
        (rel.isNumeric(g.colA), rel.isNumeric(g.colB)) match {
          case (true, true) =>
            num += NumCross(xs, ys, gi >>> 4, sh & 31, g.states(1), g.states(2))
          case (false, false) =>
            require(g.states(0) == g.states(2),
              s"order predicate over string columns ${rel.names(g.colA)}, ${rel.names(g.colB)}")
            val neq = g.states(0).toLong << sh
            for (j <- 0 until n) base(1)(j * k + w) |= neq
            str += StrCross(xs, plis.getOrElseUpdate(g.colB, Pli(ys)), w,
              neq ^ (g.states(1).toLong << sh))
          case _ =>
            throw new IllegalArgumentException(
              s"cannot compare ${rel.names(g.colA)} with ${rel.names(g.colB)}: different kinds")
        }
      }
    }
    val (base0, base1, nums, strs) = (base(0), base(1), num.result(), str.result())
    (i, out) => {
      val b0 = i * k
      var o = 0
      while (o < out.length) {
        var w = 0
        while (w < k) { out(o + w) = base1(o + w) | base0(b0 + w); w += 1 }
        o += k
      }
      // Numeric groups of one 32-bit half of a clue word (a lane) gather
      // their states in an int per pair first, a loop the JIT vectorises.
      val acc = new Array[Int](n)
      var c = 0
      while (c < nums.length) {
        val lane = nums(c).lane
        java.util.Arrays.fill(acc, 0)
        while (c < nums.length && nums(c).lane == lane) {
          val g = nums(c)
          val x = g.xs(i); val ys = g.ys; val eq = g.eq; val gt = g.gt; val sh = g.shift
          var j = 0
          while (j < n) {
            val t = Integer.signum(x - ys(j)) + 1 // compare outcome: 0 <, 1 =, 2 >
            acc(j) |= ((-(t & 1) & eq) | (-(t >>> 1) & gt)) << sh
            j += 1
          }
          c += 1
        }
        val hs = (lane & 1) << 5
        var o = lane >>> 1; var j = 0
        while (j < n) { out(o) |= (acc(j) & 0xffffffffL) << hs; o += k; j += 1 }
      }
      c = 0
      while (c < strs.length) {
        val g = strs(c)
        val cl = g.pli.cluster(g.xs(i)); val rows = g.pli.rows; val flip = g.flip
        var r = (cl >>> 32).toInt
        while (r < cl.toInt) { out(rows(r) * k + g.word) ^= flip; r += 1 }
        c += 1
      }
    }
  }
}

/** A numeric cross group in the clue row step, over the codes of its two
  * columns: its state sits at bit `shift` of 32-bit lane `lane` (half
  * lane % 2 of clue word lane / 2); `eq` and `gt` are the states of = and >
  * (that of < is 0). Codes lie in [0, `Int.MaxValue`], so the row step's
  * branch-free difference x − ys(j) cannot overflow.
  */
private final case class NumCross(xs: Array[Int], ys: Array[Int], lane: Int, shift: Int, eq: Int, gt: Int)

/** A string cross group in the clue row step: XOR `flip` turns its "≠"
  * state into "=".
  */
private final case class StrCross(xs: Array[Int], pli: Pli, word: Int, flip: Long)

/** Distributed evidence-set construction (Sec. 4.2, component 3).
  *
  * This is the reproduction's stand-in for DCFinder's [37] evidence builder:
  * the pair-quadratic scan is parallelised over row ranges, one per core
  * (RDD mapPartitions against the broadcast row step), each task
  * hash-aggregates its pairs into a class table, and the driver merges the
  * tables in partition order into the distinct-mask bag, with no shuffle.
  * Class ids are first appearance in row-major (i, j) order, so they do not
  * depend on the partitioning or the Spark master; the driver holds at most
  * one class table per partition during the merge.
  *
  * The scan's key is the pair's clue ([[Clues]]): one primitive long per
  * pair on spaces of up to 32 comparison groups. The row step writes the
  * clues of (i, ·) from per-tuple base clues, one compare per numeric cross
  * group and pair, and DCFinder-style PLI clusters for string cross groups.
  * Tasks and the driver count classes in open-addressing tables over the
  * flat keys ([[KeyTable]]), and the driver decodes each distinct clue into
  * its mask once, by ORing its groups' state masks.
  *
  * Classes, counts and `vios` come from that one scan. A task owns rows i
  * and counts each class's pairs (i, ·) per first endpoint i. By the mirror
  * identity Sat(j, i) = swap(Sat(i, j)), t is a second endpoint in class c
  * as often as a first endpoint in swap(c): vios[c][t] = first[c][t] + first[swap(c)][t].
  */
object EvidenceBuilder {

  /** The comparison groups of a predicate space, each with its state codes
    * and one mask per state, from its members' `op.evalCmp`.
    */
  def evalGroups(space: PredicateSpace): Array[EvalGroup] =
    space.groupMembers.map { members =>
      val p0 = space.predicates(members(0))
      val byOutcome = Seq(-1, 0, 1).map { c =>
        val mask = new Array[Long](Bits.words(space.size))
        for (p <- members if space.predicates(p).op.evalCmp(c)) Bits.set(mask, p)
        mask.toSeq
      }
      val masks = byOutcome.distinct
      EvalGroup(p0.a.col, p0.a.side, p0.b.col, p0.b.side,
        byOutcome.map(masks.indexOf).toArray, masks.map(_.toArray).toArray)
    }

  /** Longs per pair clue for `space`: ⌈comparison groups / 32⌉, at least 1. */
  def clueWidth(space: PredicateSpace): Int = new Clues(space).width

  /** Build Evi(D) for the encoded relation; with `needVios`, also the
    * per-class, per-tuple violation counts that f2/f3 need.
    */
  def build(
      spark: SparkSession,
      rel: EncodedRelation,
      space: PredicateSpace,
      needVios: Boolean = false): Evidence = {
    val clues = new Clues(space)
    scan(spark, rel.n, space, needVios, clues.width, clues.rowStep(rel), clues.decode)
  }

  /** The pair scan shared by both builders: one Spark job, with no shuffle,
    * over the ordered pairs of `n` tuples. `keys` is the row step, writing a
    * key of `width` longs per pair, and `decode` turns a key into its mask on
    * the driver; distinct keys must decode to distinct masks. The job has
    * one task per core, max(1, min(n, `defaultParallelism`)): each row has
    * n − 1 pairs, so equal row ranges are equal work, and a job's fixed cost
    * grows with its task count. A task owns a contiguous ascending range of
    * rows i, fills one n × width row buffer per row and adds its slices
    * j ≠ i to a [[KeyTable]]. Per class, in order of
    * first appearance, it keeps a pair count and, only with `needVios`, the
    * class's first-endpoint entries: an entry is an [[Evidence.pack]] of
    * (i, pairs (i, ·) in the class), counted in a flat per-class array while
    * row i is scanned and logged with its class when the row ends. The task
    * returns its k keys as one flat array, its k counts and its log. The
    * driver merges these records in partition order, so class ids are first
    * appearance in row-major (i, j) order whatever the partitioning, and
    * groups each class's entries in partition and log order, which keeps
    * them tid-ascending; it decodes each distinct key once. The merge holds
    * at most one class table per partition.
    */
  private[core] def scan(
      spark: SparkSession,
      n: Int,
      space: PredicateSpace,
      needVios: Boolean,
      width: Int,
      keys: PairKeys,
      decode: (Array[Long], Int) => Array[Long]): Evidence = {
    val sc = spark.sparkContext
    val bKeys = sc.broadcast(keys)
    val parts: Array[(Array[Long], Array[Long], Array[Int], Array[Long])] = sc
      .parallelize(0 until n, math.max(1, math.min(n, sc.defaultParallelism)))
      .mapPartitions { rows =>
        val pairKeys = bKeys.value
        val localId = new KeyTable(width)
        var counts = new Array[Long](64)
        // With `vios`: while row i is scanned, its pairs (i, ·) per class and
        // the classes it met; then a log record (class, entry) per class met.
        var rowCounts = new Array[Int](if (needVios) 64 else 0)
        val met = new Array[Int](if (needVios) n else 0)
        var logClasses = new Array[Int](rowCounts.length)
        var logEntries = new Array[Long](rowCounts.length)
        var nLog = 0
        // Per task: under local[*] every task shares one deserialised `pairKeys`.
        val row = new Array[Long](Math.multiplyExact(n, width))
        rows.foreach { i =>
          pairKeys.fill(i, row)
          var nMet = 0
          var j = 0
          while (j < n) {
            if (j != i) {
              val id = localId.add(row, j * width)
              if (id == counts.length) {
                counts = java.util.Arrays.copyOf(counts, 2 * id)
                if (needVios) rowCounts = java.util.Arrays.copyOf(rowCounts, 2 * id)
              }
              if (!needVios) counts(id) += 1L
              else {
                if (rowCounts(id) == 0) { met(nMet) = id; nMet += 1 }
                rowCounts(id) += 1
              }
            }
            j += 1
          }
          var m = 0
          while (m < nMet) {
            val id = met(m)
            counts(id) += rowCounts(id)
            if (nLog == logClasses.length) {
              logClasses = java.util.Arrays.copyOf(logClasses, 2 * nLog)
              logEntries = java.util.Arrays.copyOf(logEntries, 2 * nLog)
            }
            logClasses(nLog) = id
            logEntries(nLog) = Evidence.pack(i, rowCounts(id).toLong)
            nLog += 1
            rowCounts(id) = 0
            m += 1
          }
        }
        Iterator.single((localId.keys, java.util.Arrays.copyOf(counts, localId.size),
          java.util.Arrays.copyOf(logClasses, nLog), java.util.Arrays.copyOf(logEntries, nLog)))
      }
      .collect()
    bKeys.destroy()

    // Partition order is row order: a class's id is the order of its first appearance.
    val classOf = new KeyTable(width)
    var counts = new Array[Long](64)
    val classIds = parts.map { case (keys, localCounts, _, _) =>
      Array.tabulate(localCounts.length) { k =>
        val c = classOf.add(keys, k * width)
        if (c == counts.length) counts = java.util.Arrays.copyOf(counts, 2 * c)
        counts(c) += localCounts(k)
        c
      }
    }
    val flat = classOf.keys
    val classMasks = Array.tabulate(classOf.size)(c => decode(flat, c * width))
    val vios = if (!needVios) None else {
      // Each class's entries in partition, then log order: rows ascending.
      val lens = new Array[Int](classOf.size)
      val logs = parts.zip(classIds)
      for (((_, _, logClasses, _), ids) <- logs) {
        var e = 0
        while (e < logClasses.length) { lens(ids(logClasses(e))) += 1; e += 1 }
      }
      val first = lens.map(new Array[Long](_))
      java.util.Arrays.fill(lens, 0)
      for (((_, _, logClasses, logEntries), ids) <- logs) {
        var e = 0
        while (e < logClasses.length) {
          val c = ids(logClasses(e))
          first(c)(lens(c)) = logEntries(e)
          lens(c) += 1
          e += 1
        }
      }
      Some(mirror(space, classMasks, first))
    }
    Evidence(space.size, classMasks, java.util.Arrays.copyOf(counts, classOf.size), n, vios)
  }

  /** vios[c][t] = first[c][t] + first[swap(c)][t]: a merge of the two
    * tid-ascending entry lists, so the result is tid-ascending too. A class
    * that is its own mirror counts its entries twice. The same sum gives
    * vios[swap(c)], so a class and its mirror share one array.
    */
  private def mirror(
      space: PredicateSpace,
      classMasks: Array[Array[Long]],
      first: Array[Array[Long]]): Array[Array[Long]] = {
    val nWords = Bits.words(space.size)
    val classOf = new KeyTable(nWords)
    classMasks.foreach(classOf.add(_, 0))
    val vios = new Array[Array[Long]](classMasks.length)
    for (c <- classMasks.indices if vios(c) == null) {
      val mask = classMasks(c)
      val swapped = new Array[Long](nWords)
      for (w <- mask.indices) {
        var bits = mask(w)
        while (bits != 0L) {
          Bits.set(swapped, space.swapOf(w * 64 + java.lang.Long.numberOfTrailingZeros(bits)))
          bits &= bits - 1
        }
      }
      val s = classOf.find(swapped, 0)
      val a = first(c); val b = first(s)
      val out = new Array[Long](a.length + b.length)
      var x = 0; var y = 0; var o = 0
      while (x < a.length || y < b.length) {
        val ta = if (x < a.length) Evidence.tidOf(a(x)) else Int.MaxValue
        val tb = if (y < b.length) Evidence.tidOf(b(y)) else Int.MaxValue
        val t = math.min(ta, tb)
        var cnt = 0L
        if (ta == t) { cnt += Evidence.cntOf(a(x)); x += 1 }
        if (tb == t) { cnt += Evidence.cntOf(b(y)); y += 1 }
        out(o) = Evidence.pack(t, cnt)
        o += 1
      }
      vios(c) = java.util.Arrays.copyOf(out, o)
      vios(s) = vios(c)
    }
    vios
  }
}
