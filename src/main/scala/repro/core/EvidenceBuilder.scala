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
  * (t_i, t_j) for every j > i into slice j of `out` (words j·w until
  * (j + 1)·w, w the scan's key width). Slices j ≤ i are unspecified, and the
  * scan never reads them. `acc` is n ints of scratch, allocated once per
  * task like `out`, with unspecified contents on entry. Under a local master
  * the tasks share one instance, so a row step holds no mutable state.
  */
private[core] trait PairKeys extends Serializable {
  def fill(i: Int, out: Array[Long], acc: Array[Int]): Unit
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

  /** The clue of (t_j, t_i), given that of (t_i, t_j) at `keys(at until at + width)`.
    * The [[PredicateSpace.swapOf]] image of a state's mask is a state's mask
    * of one group, so group g in state s at (i, j) is group h(g) in state
    * σ_g(s) at (j, i).
    */
  val mirror: (Array[Long], Int) => Array[Long] = {
    val groupOf = new Array[Int](space.size)
    for ((members, g) <- space.groupMembers.zipWithIndex; p <- members) groupOf(p) = g
    val (h, sigma) = groups.indices.map { g =>
      val to = groupOf(space.swapOf(space.groupMembers(g)(0)))
      val states = groups(g).masks.map { m =>
        val swapped = EvidenceBuilder.swapMask(space.swapOf, m, 0, nWords).toSeq
        groups(to).masks.indexWhere(_.toSeq == swapped)
      }
      require(states.forall(_ >= 0), s"group $g: a swapped state is no state of group $to")
      (to, states)
    }.toArray.unzip
    val k = width
    (keys, at) => {
      val out = new Array[Long](k)
      var g = 0
      while (g < h.length) {
        val s = ((keys(at + (g >>> 5)) >>> ((g & 31) << 1)) & 3L).toInt
        out(h(g) >>> 5) |= sigma(g)(s).toLong << ((h(g) & 31) << 1)
        g += 1
      }
      out
    }
  }

  /** The clue-writing row step over `rel`. Each tuple has a base clue per
    * side with its single-tuple groups' states; t′'s also holds the "≠"
    * state of every string cross group. Row i starts from t_i's side-0 base
    * ORed with each t_j's side-1 base. A numeric cross group then costs one
    * compare and one shift-OR per pair, the compare a branch-free int
    * difference of the two cells' codes, which rank the values in
    * `Double.compare` order ([[EncodedRelation]]). A string cross group
    * t.A, t′.B flips to "=" only the rows above i of t_i's cluster in B's
    * PLI, so its cost is at most the cluster's size, not n. Every loop runs
    * over j > i only, the scan's upper triangle ([[PairKeys]]).
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
    (i, out, acc) => {
      val b0 = i * k
      var o = (i + 1) * k
      while (o < out.length) {
        var w = 0
        while (w < k) { out(o + w) = base1(o + w) | base0(b0 + w); w += 1 }
        o += k
      }
      // Numeric groups of one 32-bit half of a clue word (a lane) gather
      // their states in an int per pair first, a loop the JIT vectorises.
      var c = 0
      while (c < nums.length) {
        val lane = nums(c).lane
        java.util.Arrays.fill(acc, i + 1, n, 0)
        while (c < nums.length && nums(c).lane == lane) {
          val g = nums(c)
          val x = g.xs(i); val ys = g.ys; val eq = g.eq; val gt = g.gt; val sh = g.shift
          var j = i + 1
          while (j < n) {
            val t = Integer.signum(x - ys(j)) + 1 // compare outcome: 0 <, 1 =, 2 >
            acc(j) |= ((-(t & 1) & eq) | (-(t >>> 1) & gt)) << sh
            j += 1
          }
          c += 1
        }
        val hs = (lane & 1) << 5
        var j = i + 1; var o = j * k + (lane >>> 1)
        while (j < n) { out(o) |= (acc(j) & 0xffffffffL) << hs; o += k; j += 1 }
      }
      c = 0
      while (c < strs.length) {
        val g = strs(c)
        val cl = g.pli.cluster(g.xs(i)); val rows = g.pli.rows; val flip = g.flip
        // Rows ascend within a cluster: start at the first one above i.
        var r = java.util.Arrays.binarySearch(rows, (cl >>> 32).toInt, cl.toInt, i + 1)
        if (r < 0) r = -r - 1
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

/** A scan task's `vios` tally over its pairs (i, j > i): per key, how many
  * of them touch each tuple t, as first endpoint (t, j > t) or second
  * endpoint (i < t, t). The scan loop writes each pair's key id to `ids`,
  * row after row (pairs j > i only). After the last row, [[runs]] walks the
  * columns t ≥ rows.start once, B at a time, so each read of a row's ids
  * takes a whole cache line: the task's rows i < t give t's second
  * endpoints, and row t, if it is the task's, its first ones.
  */
private[core] final class EndpointTally(n: Int, rows: Range) {

  /** The pairs (r, j > r) of the rows r < i. */
  private def before(i: Int): Long = i.toLong * (n - 1) - i.toLong * (i - 1) / 2

  val ids = new Array[Int](Math.toIntExact(before(rows.end) - before(rows.start)))

  /** The key id of pair (i, j > i) goes to `ids(offset(i) + j)`. */
  def offset(i: Int): Int = (before(i) - before(rows.start)).toInt - i - 1

  /** Per key id k < `nKeys`, the tuples its pairs touch, with how many, as
    * run k: [[Evidence.pack]] entries (t, pairs), tid-ascending with
    * distinct tids.
    */
  def runs(nKeys: Int): TidRuns = {
    val B = 16 // columns per step of the walk: 16 ids are a cache line
    val tally = new Array[Int](B * nKeys) // slot b's count of key k at b·nKeys + k
    val met = new Array[Int](B * n) // slot b's keys met at b·n until b·n + nMet(b)
    val nMet = new Array[Int](B)
    val bytes = Array.fill(nKeys)(Array.emptyByteArray) // per key, its run so far
    val len = new Array[Int](nKeys)
    val next = new Array[Int](nKeys) // per key, the tid after the last in its run
    // About half the counts meet a new key, so they list it without a branch;
    // a tuple has at most n − 1 pairs, so the write stays in its slot.
    def count(b: Int, k: Int): Unit = {
      val x = b * nKeys + k
      val c = tally(x)
      met(b * n + nMet(b)) = k
      nMet(b) += (c - 1) >>> 31 // 1 when c is 0
      tally(x) = c + 1
    }
    var t0 = rows.start
    while (t0 < n) {
      val t1 = math.min(n, t0 + B)
      var i = rows.start
      while (i < math.min(rows.end, t1 - 1)) { // second endpoints
        val at = offset(i)
        var t = math.max(t0, i + 1)
        while (t < t1) { count(t - t0, ids(at + t)); t += 1 }
        i += 1
      }
      var t = t0
      while (t < math.min(rows.end, t1)) { // first endpoints
        val at = offset(t)
        var j = t + 1
        while (j < n) { count(t - t0, ids(at + j)); j += 1 }
        t += 1
      }
      t = t0
      while (t < t1) { // each key's count of t goes to its run, and the slot is cleared
        val b = t - t0
        var m = 0
        while (m < nMet(b)) {
          val k = met(b * n + m)
          if (len(k) + 10 > bytes(k).length) bytes(k) = java.util.Arrays.copyOf(bytes(k), 2 * len(k) + 16)
          len(k) = put(bytes(k), put(bytes(k), len(k), t - next(k)), tally(b * nKeys + k))
          next(k) = t + 1
          tally(b * nKeys + k) = 0
          m += 1
        }
        nMet(b) = 0
        t += 1
      }
      t0 = t1
    }
    val starts = len.scanLeft(0)(_ + _)
    val out = new Array[Byte](starts(nKeys))
    for (k <- 0 until nKeys) System.arraycopy(bytes(k), 0, out, starts(k), len(k))
    TidRuns(starts, out)
  }

  /** Writes v ≥ 0 as a varint at `bytes(at)`; returns the position after it. */
  private def put(bytes: Array[Byte], at: Int, v: Int): Int = {
    var (x, u) = (at, v)
    while (u >= 0x80) { bytes(x) = ((u & 0x7f) | 0x80).toByte; u >>>= 7; x += 1 }
    bytes(x) = u.toByte
    x + 1
  }
}

/** Runs of [[Evidence.pack]] entries (t, count), each tid-ascending with
  * distinct tids and counts ≥ 1, as one byte stream: run r is
  * `bytes(starts(r) until starts(r + 1))`, each entry two unsigned varints
  * (7 bits a byte), its tid's gap to the previous one's successor and its
  * count. Tasks return their tallies in this form, about a quarter the size
  * of the longs.
  */
private[core] final case class TidRuns(starts: Array[Int], bytes: Array[Byte]) {
  /** Adds run r's entries to `sums`. */
  def addTo(r: Int, sums: TidSums): Unit = {
    var (x, t) = (starts(r), -1)
    while (x < starts(r + 1)) {
      var gap = 0; var sh = 0; var b = 0
      while ({ b = bytes(x); x += 1; gap |= (b & 0x7f) << sh; sh += 7; b < 0 }) ()
      var cnt = 0; sh = 0
      while ({ b = bytes(x); x += 1; cnt |= (b & 0x7f) << sh; sh += 7; b < 0 }) ()
      t += gap + 1
      sums.add(t, cnt)
    }
  }
}

/** Sums counts of tuples t < n by tuple: counts go in by [[add]] in any
  * order, a tuple possibly repeated, and [[drain]] returns the sums as
  * [[Evidence.pack]] entries, tid-ascending, and clears them.
  */
private[core] final class TidSums(n: Int) {
  private val sums = new Array[Long](n)
  private val touched = new Array[Long](Bits.words(n))
  private var lo = Int.MaxValue // the touched words lie in [lo, hi]
  private var hi = -1

  def add(t: Int, cnt: Long): Unit = {
    Bits.set(touched, t)
    sums(t) += cnt
    lo = math.min(lo, t >>> 6); hi = math.max(hi, t >>> 6)
  }

  def drain(): Array[Long] = {
    var len = 0
    for (w <- lo to hi) len += java.lang.Long.bitCount(touched(w))
    val out = new Array[Long](len)
    var o = 0
    var w = lo
    while (w <= hi) {
      var bits = touched(w)
      while (bits != 0L) {
        val t = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        out(o) = Evidence.pack(t, sums(t))
        sums(t) = 0L
        o += 1
        bits &= bits - 1
      }
      touched(w) = 0L
      w += 1
    }
    lo = Int.MaxValue; hi = -1
    out
  }
}

/** What one scan task returns: its distinct keys, flat and in order of first
  * insertion, and per key its pair count, the row-major rank i·n + j of its
  * first pair, the smallest rank j·n + i of its pairs' mirrors, and with
  * `vios` its [[EndpointTally]] runs, one per key (null without).
  */
private final case class TaskPart(keys: Array[Long], counts: Array[Long], own: Array[Long],
    mir: Array[Long], runs: TidRuns)

/** Distributed evidence-set construction (Sec. 4.2, component 3).
  *
  * This is the reproduction's stand-in for DCFinder's [37] evidence builder:
  * the pair-quadratic scan is parallelised over row ranges, one per core
  * (an RDD of ranges against the broadcast row step), each task
  * hash-aggregates its pairs into a class table, and the driver merges the
  * tables in partition order into the distinct-mask bag, with no shuffle.
  * Class ids are first appearance in row-major (i, j) order, so they do not
  * depend on the partitioning or the Spark master; the driver holds one
  * class table during the merge.
  *
  * The scan visits each unordered pair once, as (i, j) with j > i, and the
  * driver adds the mirror half by the identity Sat(j, i) = swap(Sat(i, j))
  * ([[PredicateSpace.swapOf]]). Its key is the pair's clue ([[Clues]]): one
  * primitive long per pair on spaces of up to 32 comparison groups. The row
  * step writes the clues of (i, j > i) from per-tuple base clues, one
  * compare per numeric cross group and pair, and DCFinder-style PLI clusters
  * for string cross groups. Tasks and the driver count classes in
  * open-addressing tables over the flat keys ([[KeyTable]]); the driver
  * finds each key's mirror class by [[Clues.mirror]], a per-group state
  * permutation of the clue, and decodes each class's clue into its mask
  * once, by ORing its groups' state masks.
  *
  * Classes, counts and `vios` come from that one scan. With u[c][t] the
  * pairs (i, j > i) of class c that touch t, the ordered pairs of class c
  * that touch t number vios[c][t] = u[c][t] + u[swap(c)][t], so a class and
  * its mirror share one `vios` array. The tasks tally u per key and tuple
  * ([[EndpointTally]]), knowing nothing of mirrors, and the driver adds each
  * class's tallies to its mirror class's.
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

  /** The mask with bit `swapOf(p)` for each bit p of `keys(at until at + nWords)`:
    * the mask of (t_j, t_i), given that of (t_i, t_j).
    */
  private[core] def swapMask(swapOf: Array[Int], keys: Array[Long], at: Int, nWords: Int): Array[Long] = {
    val out = new Array[Long](nWords)
    for (w <- 0 until nWords) {
      var bits = keys(at + w)
      while (bits != 0L) {
        Bits.set(out, swapOf(w * 64 + java.lang.Long.numberOfTrailingZeros(bits)))
        bits &= bits - 1
      }
    }
    out
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
    scan(spark, rel.n, space, needVios, clues.width, clues.rowStep(rel), clues.decode, clues.mirror)
  }

  /** Key ids an [[EndpointTally]] keeps per task by default: 16 MB. */
  private[core] val IdBudget: Int = 1 << 22

  /** How many [[pairRanges]] the scan of `n` tuples runs: one per core, and
    * with `vios` at least one per `idBudget` pairs (i, j > i), since a
    * task's tally keeps a key id per pair: max(1, min(n, max(`parallelism`,
    * ⌈pairs / idBudget⌉))). Each range then holds at most idBudget + n − 1
    * pairs.
    */
  private[core] def rangeCount(n: Int, parallelism: Int, needVios: Boolean, idBudget: Int = IdBudget): Int = {
    val pairs = n.toLong * (n - 1) / 2
    val byIds = if (needVios) (pairs + idBudget - 1) / idBudget else 0L
    math.max(1L, math.min(n.toLong, math.max(parallelism.toLong, byIds))).toInt
  }

  /** The scan's row ranges for `n` tuples: max(1, min(n, `parallelism`))
    * contiguous ascending ranges that cover [0, n), cut by upper-triangle
    * pair count, since row i has n − 1 − i pairs (i, j > i). Range m ends at
    * the first row before which at least (m + 1) k-ths of the pairs lie, so
    * each range's pair count is within n − 1 of the total over k.
    */
  private[core] def pairRanges(n: Int, parallelism: Int): Array[Range] = {
    val k = math.max(1, math.min(n, parallelism))
    val total = n.toLong * (n - 1) / 2
    val ends = new Array[Int](k + 1)
    ends(k) = n
    var i = 0
    var before = 0L // the pairs of rows < i
    for (m <- 1 until k) {
      val target = total / k * m + (total % k * m + k - 1) / k // ⌈m · total / k⌉
      while (before < target) { before += n - 1 - i; i += 1 }
      ends(m) = i
    }
    Array.tabulate(k)(m => ends(m) until ends(m + 1))
  }

  /** The pair scan shared by both builders: one Spark job, with no shuffle,
    * over the pairs (i, j > i) of `n` tuples. `keys` is the row step, writing
    * a key of `width` longs per pair, `decode` turns a key into its mask on
    * the driver, and `mirror` turns the key of (i, j) into that of (j, i);
    * distinct keys must decode to distinct masks. The job runs over
    * [[rangeCount]] [[pairRanges]]: one task per core, since a job's fixed
    * cost grows with its task count, unless a `vios` task's key ids would
    * exceed `idBudget`. A task fills one n × width row buffer per row and
    * adds its slices j > i to a [[KeyTable]]. Per key, in order of first
    * insertion, it keeps a pair count, the rank i·n + j of its first pair,
    * taken at insertion, and the smallest rank j·n + i of a mirror (i, j),
    * which a strict j < minJ test finds since rows ascend. With `needVios` it
    * also fills an [[EndpointTally]] with its pairs' key ids.
    *
    * The driver merges the tasks' keys in partition order. Each key and its
    * `mirror` key are classes, and the key's count goes to both (twice to a
    * class that is its own mirror): counts(c) = up(c) + up(swap(c)); each
    * class's key is decoded once. Class c's
    * first ordered pair in row-major order ranks min(own(c), mir(swap(c))),
    * and classes are numbered in that order. Per class pair {c, swap(c)}, the
    * driver adds up every task's tally runs of c and of swap(c) (the one run
    * twice when c = swap(c)) into the `vios` array the two share. The merge
    * holds one class table.
    */
  private[core] def scan(
      spark: SparkSession,
      n: Int,
      space: PredicateSpace,
      needVios: Boolean,
      width: Int,
      keys: PairKeys,
      decode: (Array[Long], Int) => Array[Long],
      mirror: (Array[Long], Int) => Array[Long],
      idBudget: Int = IdBudget): Evidence = {
    val sc = spark.sparkContext
    val bKeys = sc.broadcast(keys)
    val ranges = pairRanges(n, rangeCount(n, sc.defaultParallelism, needVios, idBudget))
    val parts: Array[TaskPart] = sc
      .parallelize(ranges.toSeq, ranges.length)
      .map { rows =>
        val pairKeys = bKeys.value
        val localId = new KeyTable(width)
        var counts = new Array[Long](64)
        var own = new Array[Long](64)
        var minI = new Array[Int](64)
        var minJ = new Array[Int](64)
        // Per task: under local[*] every task shares one deserialised `pairKeys`.
        val row = new Array[Long](Math.multiplyExact(n, width))
        val acc = new Array[Int](n)
        val tally = if (needVios) new EndpointTally(n, rows) else null
        rows.foreach { i =>
          pairKeys.fill(i, row, acc)
          val at = if (tally == null) 0 else tally.offset(i)
          var j = i + 1
          while (j < n) {
            val id = localId.add(row, j * width)
            if (id == counts.length) {
              counts = java.util.Arrays.copyOf(counts, 2 * id)
              own = java.util.Arrays.copyOf(own, 2 * id)
              minI = java.util.Arrays.copyOf(minI, 2 * id)
              minJ = java.util.Arrays.copyOf(minJ, 2 * id)
            }
            if (counts(id) == 0L) { own(id) = i.toLong * n + j; minI(id) = i; minJ(id) = j }
            else if (j < minJ(id)) { minI(id) = i; minJ(id) = j }
            counts(id) += 1L
            if (tally != null) tally.ids(at + j) = id
            j += 1
          }
        }
        val k = localId.size
        TaskPart(localId.keys, java.util.Arrays.copyOf(counts, k), java.util.Arrays.copyOf(own, k),
          Array.tabulate(k)(id => minJ(id).toLong * n + minI(id)),
          if (tally == null) null else tally.runs(k))
      }
      .collect()
    bKeys.destroy()

    // Each task key's class and its mirror class. A class's mirror is found
    // once, when the first of the two is met: a key and its mirror key are
    // both classes, and mate links them.
    val classOf = new KeyTable(width)
    var mate = new Array[Int](64)
    var rank = Array.fill(64)(Long.MaxValue) // a class's first ordered pair, i·n + j
    var mergedCounts = new Array[Long](64)
    val classIds = parts.map { p =>
      Array.tabulate(p.counts.length) { k =>
        val before = classOf.size
        val c = classOf.add(p.keys, k * width)
        if (c == before) {
          val s = classOf.add(mirror(p.keys, k * width), 0)
          if (classOf.size > mate.length) {
            val was = mate.length
            mate = java.util.Arrays.copyOf(mate, 2 * classOf.size)
            mergedCounts = java.util.Arrays.copyOf(mergedCounts, mate.length)
            rank = java.util.Arrays.copyOf(rank, mate.length)
            java.util.Arrays.fill(rank, was, rank.length, Long.MaxValue)
          }
          mate(c) = s; mate(s) = c
        }
        val s = mate(c)
        mergedCounts(c) += p.counts(k); mergedCounts(s) += p.counts(k)
        rank(c) = math.min(rank(c), p.own(k)); rank(s) = math.min(rank(s), p.mir(k))
        c
      }
    }
    // Class ids in row-major order of each class's first ordered pair.
    // Ranks are distinct, so a class's id is its rank's place among them.
    val sortedRanks = java.util.Arrays.copyOf(rank, classOf.size)
    java.util.Arrays.sort(sortedRanks)
    val idOf = Array.tabulate(classOf.size)(c => java.util.Arrays.binarySearch(sortedRanks, rank(c)))
    val order = new Array[Int](idOf.length)
    idOf.indices.foreach(c => order(idOf(c)) = c)
    val classKeys = classOf.keys
    val classMasks = order.map(t => decode(classKeys, t * width))
    val vios = if (!needVios) None else {
      // Each task's keys by class pair, named by the pair's lower id, as
      // pair << 32 | key: walking the pairs in id order, every task's next
      // keys are those of the pair at hand.
      val byPair = classIds.map { ids =>
        val sorted = Array.tabulate(ids.length)(k => math.min(idOf(ids(k)), idOf(mate(ids(k)))).toLong << 32 | k)
        java.util.Arrays.sort(sorted)
        sorted
      }
      val next = new Array[Int](parts.length)
      val sums = new TidSums(n)
      val vios = new Array[Array[Long]](order.length)
      // While loops: this loop runs once per build, too seldom for closures in it to warm up.
      var c = 0
      while (c < order.length) {
        val s = idOf(mate(order(c)))
        if (c <= s) {
          var q = 0
          while (q < parts.length) {
            while (next(q) < byPair(q).length && (byPair(q)(next(q)) >>> 32) == c) {
              val k = byPair(q)(next(q)).toInt
              parts(q).runs.addTo(k, sums)
              if (s == c) parts(q).runs.addTo(k, sums) // vios[c][t] = 2 u[c][t]
              next(q) += 1
            }
            q += 1
          }
          vios(c) = sums.drain()
          vios(s) = vios(c)
        }
        c += 1
      }
      Some(vios)
    }
    Evidence(space.size, classMasks, order.map(mergedCounts(_)), n, vios)
  }
}
