package repro.core

import org.scalatest.Assertions.assert

/** Helpers for enumeration tests: abstract evidence sets built directly from
  * predicate-index sets, and a brute-force reference enumeration of minimal
  * approximate hitting sets (restricted, like ADCEnum, to at most one
  * predicate per group — the paper's nontriviality/redundancy rule).
  */
object EnumTestKit {

  def mkMasks(nPreds: Int, classes: Seq[Set[Int]]): Array[Array[Long]] =
    classes.map { s =>
      val m = new Array[Long](Bits.words(math.max(1, nPreds)))
      s.foreach(Bits.set(m, _))
      m
    }.toArray

  def mkEvidence(nPreds: Int, classes: Seq[(Set[Int], Long)], nTuples: Int): Evidence =
    Evidence(nPreds, mkMasks(nPreds, classes.map(_._1)), classes.map(_._2).toArray,
      nTuples, None)

  /** The worker counts differential tests run ADCEnum under: 1, 2 and
    * min(4, cores), never more than the cores. */
  val workerCounts: Seq[Int] = {
    val cores = Runtime.getRuntime.availableProcessors
    Seq(1, 2, math.min(4, cores)).filter(_ <= cores).distinct
  }

  /** ADCEnum over `ev` on `k` workers, each with its own instance `fn(ev)`. */
  def adcEnum(ev: Evidence, groups: Array[Int], fn: Evidence => ApproxFunction, epsilon: Double,
      chooseMax: Boolean = true, maxSize: Int = Int.MaxValue, k: Int = 1): AdcEnum =
    new AdcEnum(ev.masks, ev.counts, ev.nPreds, groups, fn(ev), epsilon, chooseMax, maxSize,
      Vector.fill(k - 1)(fn(ev)))

  /** One enumeration's output and its five counters. */
  def outcome(e: AdcEnum): (Vector[Set[Int]], Seq[Long]) = {
    val out = e.enumerate()
    (out, Seq(e.nodes, e.skipNodes, e.hitNodes, e.willCoverPrunes, e.critFailures))
  }

  /** Runs `make(k)` for every k of [[workerCounts]], asserts that each gives
    * the one-worker output, in order, and counters, and returns that output.
    */
  def underEveryK(clue: => String)(make: Int => AdcEnum): Vector[Set[Int]] = {
    val one = outcome(make(1))
    for (k <- workerCounts.tail) assert(outcome(make(k)) == one, s"$clue k=$k")
    one._1
  }

  /** Identity groups: every predicate its own group (no redundancy pruning). */
  def soloGroups(nPreds: Int): Array[Int] = Array.tabulate(nPreds)(identity)

  /** Brute-force minimal approximate hitting sets of size <= maxSize, with
    * at most one predicate per group, w.r.t. fn and epsilon. Exponential —
    * keep nPreds small or maxSize tiny.
    */
  def bruteMinimalApprox(
      nPreds: Int,
      classes: IndexedSeq[Set[Int]],
      counts: IndexedSeq[Long],
      groups: IndexedSeq[Int],
      fn: ApproxFunction,
      epsilon: Double,
      maxSize: Int = Int.MaxValue): Set[Set[Int]] = {

    def g(s: Set[Int]): Double =
      fn.g(classes.indices.iterator.filter(c => (classes(c) & s).isEmpty))

    def onedPerGroup(s: Set[Int]): Boolean =
      s.groupBy(groups(_)).forall(_._2.size == 1)

    val all = (0 until nPreds).toSet
    val candidates =
      (0 to math.min(maxSize, nPreds)).iterator.flatMap(all.subsets)
        .filter(onedPerGroup)
        .filter(s => g(s) <= epsilon)
        .toVector
    // Monotone g: minimality == every single-element removal exceeds epsilon.
    candidates.filter(s => s.forall(e => g(s - e) > epsilon)).toSet
  }

  /** A random non-empty predicate set over nPreds predicates in which the
    * predicates at 64-bit word edges (0, 63, 64, 65, 127, 128, nPreds − 1)
    * occur in 90% of sets and all others in 20%, so that small hitting sets
    * exist and use bits on both sides of a word boundary.
    */
  def randomSat(rnd: scala.util.Random, nPreds: Int): Set[Int] = {
    val edges = Set(0, 63, 64, 65, 127, 128, nPreds - 1)
    val s = (0 until nPreds).filter(p => rnd.nextDouble() < (if (edges(p)) 0.9 else 0.2)).toSet
    if (s.isEmpty) Set(rnd.nextInt(nPreds)) else s
  }

  /** Violation count of hitting set `hs` over abstract classes. */
  def violations(classes: IndexedSeq[Set[Int]], counts: IndexedSeq[Long], hs: Set[Int]): Long =
    classes.indices.filter(c => (classes(c) & hs).isEmpty).map(counts(_)).sum

  /** Build evidence (with vios) from explicit ordered tuple pairs: each
    * entry is ((i, j), Sat(i, j)). Groups equal masks into classes exactly
    * like the distributed builders do.
    */
  def evidenceFromPairs(
      nPreds: Int,
      nTuples: Int,
      pairs: Seq[((Int, Int), Set[Int])]): Evidence = {
    val byMask = pairs.groupBy(_._2).toVector.sortBy(_._1.toSeq.sorted.mkString(","))
    val masks = mkMasks(nPreds, byMask.map(_._1))
    val counts = byMask.map(_._2.size.toLong).toArray
    val vios = byMask.map { case (_, ps) =>
      val perTid = scala.collection.mutable.HashMap.empty[Int, Long]
      ps.foreach { case ((i, j), _) =>
        perTid(i) = perTid.getOrElse(i, 0L) + 1L
        perTid(j) = perTid.getOrElse(j, 0L) + 1L
      }
      perTid.toArray.sortBy(_._1).map { case (t, c) => Evidence.pack(t, c) }
    }.toArray
    Evidence(nPreds, masks, counts, nTuples, Some(vios))
  }

  /** Reference g2: fraction of tuples involved in a violating pair. */
  def refG2(pairs: Seq[((Int, Int), Set[Int])], hs: Set[Int], nTuples: Int): Double = {
    val bad = pairs.filter { case (_, sat) => (sat & hs).isEmpty }
    bad.flatMap { case ((i, j), _) => Seq(i, j) }.distinct.size.toDouble / nTuples
  }

  /** Reference greedy g3, SortTuples of Fig. 2 on the pairs themselves:
    * v(t) counts the violating pairs t is in; remove tuples by descending v
    * until the removed ones cover the violating-pair count.
    */
  def refGreedyG3(pairs: Seq[((Int, Int), Set[Int])], hs: Set[Int], nTuples: Int): Double = {
    val bad = pairs.filter { case (_, sat) => (sat & hs).isEmpty }
    val v = bad.flatMap { case ((i, j), _) => Seq(i, j) }.groupBy(identity).map(_._2.size.toLong)
    val covering = v.toSeq.sorted.reverse.scanLeft(0L)(_ + _).indexWhere(_ >= bad.size.toLong)
    covering.toDouble / nTuples
  }

  /** Reference exact g3: minimum tuples to delete so no violating pair
    * remains (exact minimum vertex cover by brute force — tiny inputs only).
    */
  def refG3Exact(pairs: Seq[((Int, Int), Set[Int])], hs: Set[Int], nTuples: Int): Double = {
    val bad = pairs.collect { case ((i, j), sat) if (sat & hs).isEmpty => (i, j) }
    if (bad.isEmpty) return 0.0
    val verts = bad.flatMap(p => Seq(p._1, p._2)).distinct
    val best = verts.toSet.subsets()
      .filter(rm => bad.forall(p => rm(p._1) || rm(p._2)))
      .map(_.size).min
    best.toDouble / nTuples
  }
}
