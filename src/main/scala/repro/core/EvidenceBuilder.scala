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

/** A scan task's `vios` tally over its pairs (i, j > i): how many of them
  * touch each tuple t, as first endpoint (t, j > t) or second endpoint
  * (i < t, t), per pair of mirror keys. A key inserted after its
  * [[Clues.mirror]] key joins that key's pair, named by the earlier id; a
  * key that is its own mirror counts each of its pairs twice. The pair's
  * tally is then u[c][t] + u[swap(c)][t], which is vios[c][t].
  *
  * It keeps the key ids of a chunk of rows, at most `chunkInts` of
  * them unless one row needs more, packed row after row (pairs j > i only).
  * A row's own pairs are tallied, as first endpoints, when the row is done,
  * from its ids while they are in cache; every B rows the chunk's
  * columns of those rows add their second endpoints, and when the chunk ends
  * so do its columns beyond it, B columns at a time so the walk reads whole
  * cache lines. Each tuple's tally then goes, per pair met, to the pair's
  * log, in [[TidRuns]] form. A tuple beyond a chunk is logged by every later
  * chunk too: a later chunk's entries follow a (0, 0) marker, and
  * [[byPair]] sums them, so the task returns each (pair, t) once.
  */
private[core] final class EndpointLog(n: Int, rows: Range, chunkInts: Int = EndpointLog.ChunkInts) {
  import EndpointLog.B
  val ids = new Array[Int](math.max(0, math.max(n - 1 - rows.start,
    math.min(chunkInts.toLong, before(rows.end) - before(rows.start)).toInt)))
  private var from = rows.start // the chunk's first row
  private var chunks = 0
  private var pairOf = new Array[Int](64) // key id -> its pair, the lower id of the two keys
  private var twice = new Array[Boolean](64) // per pair: its key is its own mirror
  private var stride = 64 // slot b's count of pair p is tally(b·stride + p), zero between runs
  private var tally = new Array[Int](B * stride)
  private var nKeys = 0
  private val met = new Array[Int](B * n) // slot b's pairs met at b·n until b·n + nMet(b)
  private val nMet = new Array[Int](B)
  private val rowAt = new Array[Int](rows.length) // offset(i) at i − rows.start
  private var bytes = new Array[Array[Byte]](64) // per pair: its log, as a run of [[TidRuns]]
  // Per pair p, at 3p, 3p + 1 and 3p + 2: the bytes of its log, the tid after
  // the last it logged, and the chunk that logged it last.
  private var state = new Array[Int](3 * 64)

  /** The pairs (r, j > r) of the rows r < i. */
  private def before(i: Int): Long = i.toLong * (n - 1) - i.toLong * (i - 1) / 2

  /** The key id of pair (i, j) of the chunk goes to `ids(offset(i) + j)`. */
  def offset(i: Int): Int = {
    rowAt(i - rows.start) = (before(i) - before(from)).toInt - i - 1
    rowAt(i - rows.start)
  }

  /** Key `id` is new, and `mate` is the id of its mirror key, or −1. */
  def inserted(id: Int, mate: Int): Unit = {
    if (id == pairOf.length) {
      pairOf = java.util.Arrays.copyOf(pairOf, 2 * id)
      twice = java.util.Arrays.copyOf(twice, 2 * id)
      bytes = java.util.Arrays.copyOf(bytes, 2 * id)
      state = java.util.Arrays.copyOf(state, 3 * 2 * id)
    }
    pairOf(id) = if (mate < 0) id else mate
    twice(id) = mate == id
    nKeys = id + 1
  }

  /** Row i is scanned. Its block of B rows, or its chunk, may end here. */
  def rowDone(i: Int): Unit = {
    if (stride < nKeys) { // room for the new keys in every slot
      val wider = math.max(nKeys, 2 * stride)
      val grown = new Array[Int](B * wider)
      for (b <- 0 until B) System.arraycopy(tally, b * stride, grown, b * wider, stride)
      tally = grown
      stride = wider
    }
    val at = rowAt(i - rows.start)
    var j = i + 1
    while (j < n) { count((i - from) % B, ids(at + j)); j += 1 } // first endpoints, in cache
    val end = i + 1
    val chunkEnds = end == rows.end || before(end + 1) - before(from) > ids.length
    if ((end - from) % B == 0 || chunkEnds) {
      val r0 = from + (i - from) / B * B
      columns(r0, end, end) // second endpoints of the block's rows within the chunk
      var t = r0
      while (t < end) { log(t, t - r0); t += 1 }
    }
    if (chunkEnds) {
      var t0 = end
      while (t0 < n) { // second endpoints beyond the chunk
        val t1 = math.min(n, t0 + B)
        columns(t0, t1, end)
        var t = t0
        while (t < t1) { log(t, t - t0); t += 1 }
        t0 = t1
      }
      from = end
      chunks += 1
    }
  }

  /** Tallies the pairs (i, t) of the chunk's rows i < `end`, t0 ≤ t < t1, in slot t − t0. */
  private def columns(t0: Int, t1: Int, end: Int): Unit = {
    var i = from
    while (i < end && i + 1 < t1) {
      val at = rowAt(i - rows.start)
      var t = math.max(t0, i + 1)
      while (t < t1) { count(t - t0, ids(at + t)); t += 1 }
      i += 1
    }
  }

  /** About half the counts meet a new pair, so they list it without a branch. */
  private def count(b: Int, id: Int): Unit = {
    val p = pairOf(id)
    val x = b * stride + p
    val c = tally(x)
    met(b * n + nMet(b)) = p
    nMet(b) += (c - 1) >>> 31 // 1 when c is 0
    tally(x) = c + 1
  }

  /** Log tuple t's tally from slot b, and clear the slot. */
  private def log(t: Int, b: Int): Unit = {
    var m = 0
    while (m < nMet(b)) {
      val p = met(b * n + m)
      val x = b * stride + p
      var at = state(3 * p)
      var buf = bytes(p)
      if (buf == null || at + 12 > buf.length) {
        buf = java.util.Arrays.copyOf(if (buf == null) new Array[Byte](0) else buf, 2 * at + 16)
        bytes(p) = buf
      }
      if (state(3 * p + 2) != chunks) { // a later chunk starts over at its first row
        if (at > 0) at = TidRuns.put(buf, TidRuns.put(buf, at, 0), 0)
        state(3 * p + 1) = 0
        state(3 * p + 2) = chunks
      }
      at = TidRuns.put(buf, at, t - state(3 * p + 1))
      state(3 * p) = TidRuns.put(buf, at, if (twice(p)) 2 * tally(x) else tally(x))
      state(3 * p + 1) = t + 1
      tally(x) = 0
      m += 1
    }
    nMet(b) = 0
  }

  /** The log by pair, for the task's `nKeys` keys: pair p's entries
    * [[Evidence.pack]] of (t, pairs), tid-ascending with distinct tids, as
    * run p of [[TidRuns]]; a key that joined an earlier key's pair has none.
    */
  def byPair(nKeys: Int): TidRuns = {
    val at = new Array[Int](nKeys + 1)
    for (p <- 0 until nKeys) at(p + 1) = at(p) + state(3 * p)
    val runs = TidRuns(at, new Array[Byte](at(nKeys)))
    for (p <- 0 until nKeys if at(p + 1) > at(p)) System.arraycopy(bytes(p), 0, runs.bytes, at(p), at(p + 1) - at(p))
    if (chunks <= 1) runs
    else { // the chunks' runs of a pair overlap: their sums take no more bytes
      val sums = new TidSums(n)
      val entries = new Array[Long](at(nKeys) / 2)
      val merged = new Array[Int](nKeys + 1)
      val out = new Array[Byte](at(nKeys))
      for (p <- 0 until nKeys) {
        var x = merged(p)
        val len = runs.decode(p, entries, 0)
        for (e <- 0 until len) sums.add(Evidence.tidOf(entries(e)), Evidence.cntOf(entries(e)))
        var next = 0
        for (e <- 0 until sums.drain(entries, 0)) {
          val t = Evidence.tidOf(entries(e))
          x = TidRuns.put(out, TidRuns.put(out, x, t - next), Evidence.cntOf(entries(e)).toInt)
          next = t + 1
        }
        merged(p + 1) = x
      }
      TidRuns(merged, java.util.Arrays.copyOf(out, merged(nKeys)))
    }
  }
}

private[core] object EndpointLog {
  /** Ids kept per task by default: 16 MB. */
  val ChunkInts: Int = 1 << 22

  /** Rows per block and columns per step of the column walks: 16 ids are a cache line. */
  private val B = 16
}

/** Runs of [[Evidence.pack]] entries (t, count), each tid-ascending with
  * distinct tids and counts ≥ 1, as one byte stream: run r is
  * `bytes(starts(r) until starts(r + 1))`, each entry two unsigned varints
  * (7 bits a byte), its tid's gap to the previous one's successor and its
  * count. Tasks return their logs in this form, about a quarter the size of
  * the longs. A (0, 0) entry, which only an [[EndpointLog]] writes, starts
  * the tids over.
  */
private[core] final case class TidRuns(starts: Array[Int], bytes: Array[Byte]) {
  def runs: Int = starts.length - 1

  /** Run r's entries, decoded into `out` from `at` on; returns how many. */
  def decode(r: Int, out: Array[Long], at: Int): Int = {
    var (x, o, t) = (starts(r), at, -1)
    while (x < starts(r + 1)) {
      var gap = 0; var sh = 0; var b = 0
      while ({ b = bytes(x); x += 1; gap |= (b & 0x7f) << sh; sh += 7; b < 0 }) ()
      var cnt = 0; sh = 0
      while ({ b = bytes(x); x += 1; cnt |= (b & 0x7f) << sh; sh += 7; b < 0 }) ()
      if (cnt == 0) t = -1 // a chunk marker: the tids start over
      else {
        t += gap + 1
        out(o) = Evidence.pack(t, cnt.toLong)
        o += 1
      }
    }
    o - at
  }

  /** An upper bound on run r's entries: each takes at least 2 bytes. */
  def bound(r: Int): Int = (starts(r + 1) - starts(r)) / 2
}

private[core] object TidRuns {
  /** Writes v ≥ 0 as a varint at `bytes(at)`; returns the position after it. */
  def put(bytes: Array[Byte], at: Int, v: Int): Int = {
    var (x, u) = (at, v)
    while (u >= 0x80) { bytes(x) = ((u & 0x7f) | 0x80).toByte; u >>>= 7; x += 1 }
    bytes(x) = u.toByte
    x + 1
  }
}

/** Sums [[Evidence.pack]] entries (t, count) of tuples t < n by tuple:
  * entries go in by [[add]] in any order, a tuple possibly repeated, and
  * [[drain]] writes the sums tid-ascending and clears them.
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

  /** Writes the sums to `out` from `at` on; returns how many. */
  def drain(out: Array[Long], at: Int): Int = {
    var o = at
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
    o - at
  }
}

/** What one scan task returns: its distinct keys, flat and in order of first
  * insertion, and per key its pair count, the row-major rank i·n + j of its
  * first pair, the smallest rank j·n + i of its pairs' mirrors, and with
  * `vios` its [[EndpointLog]] entries by pair of mirror keys.
  */
private final case class TaskPart(keys: Array[Long], counts: Array[Long], own: Array[Long],
    mir: Array[Long], log: TidRuns)

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
  * its mirror share one `vios` array, which the tasks tally together.
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
    * distinct keys must decode to distinct masks. The job has one task per
    * core over the [[pairRanges]], since a job's fixed cost grows with its
    * task count. A task fills one n × width row buffer per row and adds its
    * slices j > i to a [[KeyTable]]. Per key, in order of first insertion, it
    * keeps a pair count, the rank i·n + j of its first pair, taken at
    * insertion, and the smallest rank j·n + i of a mirror (i, j), which a
    * strict j < minJ test finds since rows ascend. With `needVios` it also
    * fills an [[EndpointLog]], looking up each new key's mirror key.
    *
    * The driver merges the tasks' keys in partition order. Each key and its
    * `mirror` key are classes, and the key's count goes to both (twice to a
    * class that is its own mirror): counts(c) = up(c) + up(swap(c)); each
    * class's key is decoded once. Class c's
    * first ordered pair in row-major order ranks min(own(c), mir(swap(c))),
    * and classes are numbered in that order. A class and its mirror get, as
    * `vios`, their tasks' logs added up per tuple on the driver's cores. The
    * merge holds one class table.
    */
  private[core] def scan(
      spark: SparkSession,
      n: Int,
      space: PredicateSpace,
      needVios: Boolean,
      width: Int,
      keys: PairKeys,
      decode: (Array[Long], Int) => Array[Long],
      mirror: (Array[Long], Int) => Array[Long]): Evidence = {
    val sc = spark.sparkContext
    // The mirror rides with the row step: a lambda in the task closure would
    // be deserialized by every task, about 2 ms each.
    val bKeys = sc.broadcast((keys, mirror))
    val ranges = pairRanges(n, sc.defaultParallelism)
    val parts: Array[TaskPart] = sc
      .parallelize(ranges.toSeq, ranges.length)
      .map { rows =>
        val (pairKeys, mirrorOf) = bKeys.value
        val localId = new KeyTable(width)
        var counts = new Array[Long](64)
        var own = new Array[Long](64)
        var minI = new Array[Int](64)
        var minJ = new Array[Int](64)
        // Per task: under local[*] every task shares one deserialised `pairKeys`.
        val row = new Array[Long](Math.multiplyExact(n, width))
        val acc = new Array[Int](n)
        val log = if (needVios) new EndpointLog(n, rows) else null
        rows.foreach { i =>
          pairKeys.fill(i, row, acc)
          val at = if (log == null) 0 else log.offset(i)
          var j = i + 1
          while (j < n) {
            val id = localId.add(row, j * width)
            if (id == counts.length) {
              counts = java.util.Arrays.copyOf(counts, 2 * id)
              own = java.util.Arrays.copyOf(own, 2 * id)
              minI = java.util.Arrays.copyOf(minI, 2 * id)
              minJ = java.util.Arrays.copyOf(minJ, 2 * id)
            }
            if (counts(id) == 0L) {
              own(id) = i.toLong * n + j; minI(id) = i; minJ(id) = j
              if (log != null) log.inserted(id, localId.find(mirrorOf(row, j * width), 0))
            } else if (j < minJ(id)) { minI(id) = i; minJ(id) = j }
            counts(id) += 1L
            if (log != null) log.ids(at + j) = id
            j += 1
          }
          if (log != null) log.rowDone(i)
        }
        val k = localId.size
        TaskPart(localId.keys, java.util.Arrays.copyOf(counts, k), java.util.Arrays.copyOf(own, k),
          Array.tabulate(k)(id => minJ(id).toLong * n + minI(id)),
          if (log == null) TidRuns(new Array[Int](k + 1), Array.emptyByteArray) else log.byPair(k))
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
      // A task's log run of a key is that of the key's class pair {c, swap(c)},
      // named here by its lower id: list each pair's runs, then sum them.
      def pairOf(c: Int) = math.min(idOf(c), idOf(mate(c)))
      val starts = new Array[Int](order.length + 1)
      for ((p, ids) <- parts.zip(classIds); k <- ids.indices if p.log.bound(k) > 0) starts(pairOf(ids(k)) + 1) += 1
      for (c <- order.indices) starts(c + 1) += starts(c)
      val (runPart, runKey) = (new Array[Int](starts(order.length)), new Array[Int](starts(order.length)))
      val next = starts.clone()
      for (((p, ids), q) <- parts.zip(classIds).zipWithIndex; k <- ids.indices if p.log.bound(k) > 0) {
        val c = pairOf(ids(k))
        runPart(next(c)) = q; runKey(next(c)) = k
        next(c) += 1
      }
      val swapOf = new Array[Int](order.length)
      for (c <- order.indices) swapOf(idOf(c)) = idOf(mate(c))
      // Each class pair's runs summed per tuple, the pairs spread over the driver's cores.
      val vios = new Array[Array[Long]](order.length)
      val workers = math.max(1, math.min(Runtime.getRuntime.availableProcessors, sc.defaultParallelism))
      java.util.stream.IntStream.range(0, workers).parallel().forEach { w =>
        // While loops: this runs a few times per build, too few for closures to warm up.
        val sums = new TidSums(n)
        var buf = new Array[Long](64)
        var pair = w
        while (pair < order.length) {
          if (pair <= swapOf(pair)) {
            var (len, r) = (0, starts(pair))
            while (r < starts(pair + 1)) { len += parts(runPart(r)).log.bound(runKey(r)); r += 1 }
            if (buf.length < len) buf = new Array[Long](math.max(len, 2 * buf.length))
            var got = 0
            r = starts(pair)
            while (r < starts(pair + 1)) { got += parts(runPart(r)).log.decode(runKey(r), buf, got); r += 1 }
            if (starts(pair + 1) - starts(pair) > 1) { // the runs of several tasks overlap
              var e = 0
              while (e < got) { sums.add(Evidence.tidOf(buf(e)), Evidence.cntOf(buf(e))); e += 1 }
              got = sums.drain(buf, 0)
            }
            vios(pair) = java.util.Arrays.copyOf(buf, got)
            vios(swapOf(pair)) = vios(pair)
          }
          pair += workers
        }
      }
      Some(vios)
    }
    Evidence(space.size, classMasks, order.map(mergedCounts(_)), n, vios)
  }
}
