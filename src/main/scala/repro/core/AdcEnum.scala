package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
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
  *
  * Workers: `workerFns` holds one instance of f per worker beyond the first,
  * which uses `fn`; no two workers may share an instance, since f2 and
  * greedy f3 keep scratch. With one worker (the default) `enumerate` runs the
  * whole tree on the calling thread. With k workers the calling thread is
  * first the lister: it runs the root node, whose children become tasks in
  * DFS order, the skip child (S = [], cand ∧ ¬F) and each hit child e
  * (S = [e], its cand). A child's size estimate is its uncovered pair weight
  * times the number of subsets of its cand with at most maxSize − |S|
  * members, a function of the evidence and the path alone; while it is above
  * 1/(4k) of the root's, the lister enters the child through the same
  * recursion instead, so large subtrees split into their children,
  * recursively, and the nodes it enters count once, in its own counters.
  * The estimate counts subsets, not just |cand|, because maxSize bounds a
  * subtree's depth. The calling thread and k − 1 threads started by the
  * call then take the tasks largest
  * estimate first, each worker on its own search state over the shared
  * `masks`, `counts`, `predCls` and group masks; a task replays S with
  * UpdateCritUncov, runs the same recursion as one worker does, and undoes
  * the replay. Every task's hitting sets, and those of an entered node that
  * is a base case, go into its DFS slot, and the counters are summed, so the
  * output `Vector` and every counter are those of one worker whatever the
  * schedule. The threads are joined before `enumerate` returns or throws,
  * and a worker's exception is rethrown on the calling thread. One instance
  * runs one enumeration at a time; results are hitting sets over predicate
  * indices.
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
    workerFns: IndexedSeq[ApproxFunction] = Vector.empty,
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

  /** Recursion nodes visited — reported in the experiments. */
  var nodes: Long = 0L
  /** Branch counters of the last run: nodes entered through the skip ("do not
    * hit F") and the hit branch (nodes = 1 + skipNodes + hitNodes), skip
    * branches cut by WillCover, and hit candidates e rejected because crit[e]
    * or some crit[u], u ∈ S, was empty.
    */
  var skipNodes, hitNodes, willCoverPrunes, critFailures: Long = 0L
  /** Nodes of each task of the last run, in DFS slot order; the lister's
    * nodes are `nodes` minus their sum. Empty with one worker, which runs
    * the whole tree itself.
    */
  var taskNodes: Vector[Long] = Vector.empty

  /** Calls f on the set bits of word(0) … word(nw − 1), ascending. */
  private def foreachBit(nw: Int)(word: Int => Long)(f: Int => Unit): Unit = {
    var w = 0
    while (w < nw) {
      var x = word(w)
      while (x != 0L) { f((w << 6) + java.lang.Long.numberOfTrailingZeros(x)); x &= x - 1 }
      w += 1
    }
  }

  /** Pair weight of the classes in `bits`. A loop of its own rather than
    * [[foreachBit]]: it runs for every hit candidate, and through the shared
    * walk's closures it made warm adult enumeration 1.7–2× slower whenever
    * the JIT left that walk out of line.
    */
  private def weightOf(bits: Array[Long]): Long = {
    var t = 0L
    var w = 0
    while (w < cWords) {
      var x = bits(w)
      while (x != 0L) { t += counts((w << 6) + java.lang.Long.numberOfTrailingZeros(x)); x &= x - 1 }
      w += 1
    }
    t
  }

  /** A subtree for a worker: the hitting set S in path order, its cand and
    * its size estimate ([[lnSize]]); `out` and `nodes` are its hitting sets
    * and node count once run.
    */
  private final class Task(val path: Array[Int], val cand: Array[Long], val size: Double) {
    var out: Vector[Set[Int]] = Vector.empty
    var nodes = 0L
  }

  /** The lister's output in DFS order: a hitting set found at a node it
    * entered, or a task. */
  private type Slots = ArrayBuffer[Either[Set[Int], Task]]

  /** The size estimate of a node, in natural log: its uncovered pair weight
    * times the number of sets its subtree may still add to S, the subsets
    * of cand of at most maxSize − |S| members.
    */
  private def lnSize(uncovWeight: Long, cand: Array[Long], sSize: Int): Double = {
    var n = 0
    cand.foreach(w => n += java.lang.Long.bitCount(w))
    val r = math.min(n, math.max(0, maxSize - sSize))
    var lnTerm, lnSum = 0.0 // ln C(n, i) and ln Σ_{j ≤ i} C(n, j), summed stably
    var i = 0
    while (i < r) {
      lnTerm += math.log((n - i).toDouble / (i + 1))
      lnSum = math.max(lnSum, lnTerm) + math.log1p(math.exp(-math.abs(lnSum - lnTerm)))
      i += 1
    }
    math.log(uncovWeight.toDouble) + lnSum
  }

  /** The lister enters a child whose estimate is above 1/(4k) of the root's,
    * where every class is uncovered and every predicate a candidate. */
  private val splitAbove =
    lnSize(counts.sum, maskOf(0 until nPreds), 0) - math.log(4.0 * (1 + workerFns.length))

  /** One worker: the mutable search state S, uncov with its weight and crit,
    * its own f, its output and its counters.
    */
  private final class Search(fn: ApproxFunction) {
    private val uncov = new Array[Long](cWords)
    private var uncovWeight = 0L // pair weight of uncov
    private val s = ArrayBuffer.empty[Int] // current hitting set
    private val crit = Array.fill(nPreds)(new Array[Long](cWords))
    private val critSize = new Array[Int](nPreds)
    private val gWords = new Array[Long](cWords) // scratch bitset handed to fn.g
    val results = Vector.newBuilder[Set[Int]]
    var nodes, skipNodes, hitNodes, willCoverPrunes, critFailures: Long = 0L

    /** The root's state: S empty, every class uncovered, counters zero. */
    def reset(): Unit = {
      nodes = 0L; skipNodes = 0L; hitNodes = 0L; willCoverPrunes = 0L; critFailures = 0L
      results.clear()
      s.clear()
      crit.foreach(java.util.Arrays.fill(_, 0L))
      java.util.Arrays.fill(critSize, 0)
      (0 until nClasses).foreach(Bits.set(uncov, _))
      uncovWeight = counts.sum
    }

    // ---- approximation-function plumbing -----------------------------------
    /** g of the DC obtained by dropping e from S: its violating classes are
      * uncov plus the classes for which e is critical. */
    private def gWithout(e: Int): Double = {
      var w = 0
      while (w < cWords) { gWords(w) = uncov(w) | crit(e)(w); w += 1 }
      fn.g(gWords, uncovWeight + weightOf(crit(e)))
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

    // ---- subroutines --------------------------------------------------------
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
      uncovWeight -= weightOf(crit(e))
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

    // ---- main recursion (Fig. 4) -------------------------------------------
    /** One node. Its skip child gets rest = cand ∧ ¬F; its hit child e gets
      * (rest ∨ passed) ∧ ¬group(e), where `passed` holds the earlier members
      * of cand ∩ F that passed the crit test. `cand` is only read. With
      * `slots` non-null this is the lister: a hitting set goes into `slots`,
      * and a child is entered only while its size estimate is above
      * `splitAbove`, else listed there as a task.
      */
    def rec(cand: Array[Long], slots: Slots): Unit = {
      nodes += 1
      if (fn.g(uncov, uncovWeight) <= epsilon) {
        // Base case: S is an approximate hitting set. Monotonicity makes every
        // proper superset non-minimal, so the branch ends here either way.
        if (isMinimal()) { if (slots == null) results += s.toSet else slots += Left(s.toSet) }
        return
      }
      if (s.length >= maxSize) return
      val fCls = chooseClass(cand)
      if (fCls == -1) return
      val fMask = masks(fCls)
      def child(cand: Array[Long]): Unit =
        if (slots == null) rec(cand, null)
        else {
          val size = lnSize(uncovWeight, cand, s.length)
          if (size > splitAbove) rec(cand, slots) else slots += Right(new Task(s.toArray, cand, size))
        }

      // ---- branch 1: do not hit F (lines 7-12) ----
      val rest = Array.tabulate(nWords)(w => cand(w) & ~fMask(w))
      if (gWillCover(rest) <= epsilon) { skipNodes += 1; child(rest) } else willCoverPrunes += 1

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
          val next = Array.tabulate(nWords)(w => (rest(w) | passed(w)) & ~groupMask(e)(w))
          s += e; hitNodes += 1
          child(next)
          s.remove(s.length - 1)
          Bits.set(passed, e)
        } else critFailures += 1
        undoCritUncov(e, stripped, moved, weight)
      }
    }

    /** Replays the task's S, runs its subtree and undoes the replay; sets the
      * task's hitting sets, in DFS order, and its node count. */
    def run(t: Task): Unit = {
      results.clear()
      val before = nodes
      val undo = t.path.map { e =>
        val weight = uncovWeight
        val stripped = updateCritUncov(e)
        s += e
        (e, stripped, critSize(e), weight)
      }
      rec(t.cand, null)
      undo.reverseIterator.foreach { case (e, stripped, moved, weight) =>
        s.remove(s.length - 1)
        undoCritUncov(e, stripped, moved, weight)
      }
      t.out = results.result()
      t.nodes = nodes - before
    }
  }

  private val searches = (fn +: workerFns).map(new Search(_))

  /** Run the enumeration; returns every minimal approximate hitting set
    * exactly once (Thm. 6.1). Repeated calls give the same result.
    */
  def enumerate(): Vector[Set[Int]] = {
    searches.foreach(_.reset())
    val root = searches(0)
    val all = maskOf(0 until nPreds)
    taskNodes = Vector.empty
    val out =
      if (searches.length == 1) { root.rec(all, null); root.results.result() }
      else {
        val slots: Slots = ArrayBuffer.empty
        root.rec(all, slots)
        val tasks = slots.collect { case Right(t) => t }
        runTasks(tasks.sortBy(-_.size).toVector)
        taskNodes = tasks.iterator.map(_.nodes).toVector
        slots.iterator.flatMap {
          case Left(hs) => Iterator.single(hs)
          case Right(t) => t.out
        }.toVector
      }
    nodes = searches.map(_.nodes).sum
    skipNodes = searches.map(_.skipNodes).sum
    hitNodes = searches.map(_.hitNodes).sum
    willCoverPrunes = searches.map(_.willCoverPrunes).sum
    critFailures = searches.map(_.critFailures).sum
    out
  }

  /** Runs `tasks` on the calling thread and up to k − 1 started threads, each
    * worker taking the next task in `tasks`' order; joins every thread before
    * it returns or rethrows the first failure. */
  private def runTasks(tasks: Vector[Task]): Unit = {
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]
    def work(w: Search): Unit =
      try {
        var i = next.getAndIncrement()
        while (i < tasks.length && failure.get == null) { w.run(tasks(i)); i = next.getAndIncrement() }
      } catch { case t: Throwable => failure.compareAndSet(null, t) }
    val threads = searches.slice(1, tasks.length).map { w =>
      val t = new Thread(() => work(w), "AdcEnum-worker")
      t.setDaemon(true)
      t
    }
    try { threads.foreach(_.start()); work(searches(0)) }
    finally {
      var interrupted = false
      for (t <- threads) while (t.isAlive)
        try t.join()
        catch { case e: InterruptedException => interrupted = true; failure.compareAndSet(null, e) }
      if (interrupted) Thread.currentThread().interrupt()
    }
    Option(failure.get).foreach(throw _)
  }
}
