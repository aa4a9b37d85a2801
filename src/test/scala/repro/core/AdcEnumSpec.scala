package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.util.Random

class AdcEnumSpec extends AnyFunSuite {
  import EnumTestKit._

  private def run(
      nPreds: Int,
      classes: Seq[(Set[Int], Long)],
      epsilon: Double,
      nTuples: Int = 10,
      groups: Array[Int] = null,
      chooseMax: Boolean = true,
      maxSize: Int = Int.MaxValue): Vector[Set[Int]] = {
    val ev = mkEvidence(nPreds, classes, nTuples)
    val g = if (groups == null) soloGroups(nPreds) else groups
    underEveryK(s"classes=$classes eps=$epsilon")(adcEnum(ev, g, new F1(_), epsilon, chooseMax, maxSize, _))
  }

  test("epsilon 0 reduces to exact minimal hitting sets") {
    val classes = Seq(Set(0, 1) -> 3L, Set(1, 2) -> 2L, Set(0, 2) -> 4L)
    val got = run(3, classes, 0.0).toSet
    assert(got == Set(Set(0, 1), Set(1, 2), Set(0, 2)))
  }

  test("nonzero epsilon admits smaller sets") {
    // 10 tuples -> 90 ordered pairs. Class {2} has weight 4 <= eps*90.
    val classes = Seq(Set(0, 1) -> 50L, Set(2) -> 4L)
    val got = run(3, classes, 0.05, nTuples = 10).toSet
    // {0} and {1} leave class {2} uncovered: 4/90 = 0.044 <= 0.05.
    assert(got == Set(Set(0), Set(1)))
  }

  test("the empty set is returned when everything is within epsilon") {
    val classes = Seq(Set(0) -> 1L)
    val got = run(2, classes, 0.5, nTuples = 10).toSet
    assert(got == Set(Set.empty[Int]))
  }

  test("sets avoiding the first-chosen class are still found (skip branch)") {
    // Force the situation that breaks naive base-case-modified MMCS: a
    // minimal approximate hitting set that misses a heavy-covered class.
    // Classes: A={0} (weight 5), B={1} (weight 5), 90 pairs, eps=0.06.
    // {0} leaves B violated (5/90=0.055<=eps) and {1} leaves A violated.
    val classes = Seq(Set(0) -> 5L, Set(1) -> 5L)
    val got = run(2, classes, 0.06, nTuples = 10).toSet
    assert(got == Set(Set(0), Set(1)))
  }

  test("every returned set is exactly once (no duplicates)") {
    val classes = Seq(Set(0, 1, 2) -> 10L, Set(1, 3) -> 5L, Set(2, 3) -> 5L, Set(0, 3) -> 7L)
    val got = run(4, classes, 0.1, nTuples = 20)
    assert(got.size == got.toSet.size)
  }

  test("group restriction: at most one predicate per group in any output") {
    val groups = Array(0, 0, 1, 1)
    val classes = Seq(Set(0, 2) -> 8L, Set(1, 3) -> 8L, Set(0, 3) -> 8L, Set(1, 2) -> 8L)
    val got = run(4, classes, 0.0, groups = groups).toSet
    got.foreach(s => assert(s.groupBy(groups(_)).forall(_._2.size == 1), s"bad set $s"))
    assert(got == bruteMinimalApprox(4, classes.map(_._1).toIndexedSeq,
      classes.map(_._2).toIndexedSeq, groups.toIndexedSeq,
      new F1(mkEvidence(4, classes, 10)), 0.0))
  }

  test("matches brute force on 300 random instances (f1, varying epsilon)") {
    val rnd = new Random(11)
    (0 until 300).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(6)
      val nClasses = 1 + rnd.nextInt(8)
      val classes = Seq.fill(nClasses) {
        val sz = 1 + rnd.nextInt(nPreds)
        rnd.shuffle((0 until nPreds).toList).take(sz).toSet -> (1L + rnd.nextInt(9))
      }
      val nTuples = 10 + rnd.nextInt(10)
      val epsilon = Seq(0.0, 0.01, 0.05, 0.2)(rnd.nextInt(4))
      val groups =
        if (rnd.nextBoolean()) soloGroups(nPreds)
        else Array.tabulate(nPreds)(_ / 2)
      val ev = mkEvidence(nPreds, classes, nTuples)
      val got = underEveryK(s"trial $trial")(k => adcEnum(ev, groups, new F1(_), epsilon, k = k))
      val want = bruteMinimalApprox(nPreds, classes.map(_._1).toIndexedSeq,
        classes.map(_._2).toIndexedSeq, groups.toIndexedSeq, new F1(ev), epsilon)
      assert(got.toSet == want,
        s"trial $trial: eps=$epsilon groups=${groups.toSeq} classes=$classes")
      assert(got.size == got.toSet.size, s"trial $trial produced duplicates")
    }
  }

  test("min-intersection choice yields the same result set") {
    val rnd = new Random(12)
    (0 until 100).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(5)
      val nClasses = 1 + rnd.nextInt(7)
      val classes = Seq.fill(nClasses) {
        rnd.shuffle((0 until nPreds).toList).take(1 + rnd.nextInt(nPreds)).toSet ->
          (1L + rnd.nextInt(5))
      }
      val eps = Seq(0.0, 0.03, 0.1)(rnd.nextInt(3))
      val a = run(nPreds, classes, eps, nTuples = 12, chooseMax = true).toSet
      val b = run(nPreds, classes, eps, nTuples = 12, chooseMax = false).toSet
      assert(a == b, s"trial $trial")
    }
  }

  test("maxSize caps output to minimal ADCs of bounded size") {
    val rnd = new Random(13)
    (0 until 100).foreach { trial =>
      val nPreds = 3 + rnd.nextInt(4)
      val classes = Seq.fill(1 + rnd.nextInt(6)) {
        rnd.shuffle((0 until nPreds).toList).take(1 + rnd.nextInt(nPreds)).toSet ->
          (1L + rnd.nextInt(5))
      }
      val eps = Seq(0.0, 0.05)(rnd.nextInt(2))
      val cap = 1 + rnd.nextInt(2)
      val got = run(nPreds, classes, eps, nTuples = 12, maxSize = cap).toSet
      val want = bruteMinimalApprox(nPreds, classes.map(_._1).toIndexedSeq,
        classes.map(_._2).toIndexedSeq, soloGroups(nPreds).toIndexedSeq,
        new F1(mkEvidence(nPreds, classes, 12)), eps, maxSize = cap)
      assert(got == want, s"trial $trial cap=$cap classes=$classes")
    }
  }

  test("class and predicate counts across 64-bit word boundaries match brute force") {
    val rnd = new Random(15)
    // (classes, predicates, maxSize): class ids fill 0 to 4 words; the last
    // shapes need 2 or 3 predicate words, so brute force is capped there.
    val shapes = Seq(0, 1, 63, 64, 65, 129, 171, 200).map((_, 8, Int.MaxValue)) ++
      Seq((64, 65, 2), (65, 90, 2), (140, 130, 2))
    var wideHits = 0
    for ((nClasses, nPreds, cap) <- shapes; eps <- Seq(0.0, 0.02)) {
      val classes = Seq.fill(nClasses)(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(9)))
      val ev = mkEvidence(nPreds, classes, 40)
      val groups = Array.tabulate(nPreds)(p => if (p % 5 == 4) p - 1 else p)
      val want = bruteMinimalApprox(nPreds, classes.map(_._1).toIndexedSeq,
        classes.map(_._2).toIndexedSeq, groups.toIndexedSeq, new F1(ev), eps, cap)
      wideHits += want.count(_.exists(_ >= 64))
      for (chooseMax <- Seq(true, false)) {
        val got = underEveryK(s"classes=$nClasses preds=$nPreds eps=$eps chooseMax=$chooseMax")(
          adcEnum(ev, groups, new F1(_), eps, chooseMax, cap, _))
        assert(got.toSet == want && got.size == want.size,
          s"classes=$nClasses preds=$nPreds eps=$eps chooseMax=$chooseMax")
      }
    }
    assert(wideHits > 0, "no expected hitting set uses a predicate beyond the first word")
  }

  test("a second enumerate() on one instance returns the same sets and counters") {
    val rnd = new Random(16)
    (0 until 50).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(6)
      val classes = Seq.fill(1 + rnd.nextInt(8))(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(9)))
      val ev = mkEvidence(nPreds, classes, 12)
      val e = new AdcEnum(ev.masks, ev.counts, nPreds, soloGroups(nPreds), new F1(ev),
        Seq(0.0, 0.05)(rnd.nextInt(2)))
      def counters = Seq(e.nodes, e.skipNodes, e.hitNodes, e.willCoverPrunes, e.critFailures)
      val first = e.enumerate()
      val firstCounters = counters
      assert(e.nodes == 1 + e.skipNodes + e.hitNodes, s"trial $trial")
      assert(e.enumerate() == first, s"trial $trial")
      assert(counters == firstCounters, s"trial $trial")
    }
  }

  test("output order and branch counters are pinned by a digest") {
    // Seeded instances over 70 predicates (2 mask words) in groups of three
    // and over 64 to 130 classes (2 or 3 class words): f1 at two epsilons and
    // f2 and greedy f3 over evidence that carries vios, each under both
    // choices. The digest covers hittingSets in output order and the five
    // counters, so it also catches a change that keeps the set of outputs
    // but moves their order or the search tree. Every worker count gives it.
    val nPreds = 70
    val groups = Array.tabulate(nPreds)(_ / 3)
    def transcript(k: Int): String = {
      val rnd = new Random(17)
      val lines = Vector.newBuilder[String]
      def record(label: String, e: AdcEnum): Unit = {
        val (out, counters) = outcome(e)
        lines += s"$label:${out.map(_.toSeq.sorted.mkString(",")).mkString(";")}|${counters.mkString(",")}"
      }
      (0 until 3).foreach { trial =>
        val classes = Seq.fill(65 + rnd.nextInt(66))(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(9)))
        val ev = mkEvidence(nPreds, classes, 40)
        for (eps <- Seq(0.0, 0.02); chooseMax <- Seq(true, false))
          record(s"f1/$trial/$eps/$chooseMax", adcEnum(ev, groups, new F1(_), eps, chooseMax, 3, k))
      }
      (0 until 2).foreach { trial =>
        val n = 10
        val pairs = for (i <- 0 until n; j <- 0 until n if i != j) yield ((i, j), randomSat(rnd, nPreds))
        val ev = evidenceFromPairs(nPreds, n, pairs)
        assert(ev.nClasses > 64 && ev.vios.isDefined)
        for ((fn, eps) <- Seq("f2" -> 0.3, "f3" -> 0.2); chooseMax <- Seq(true, false))
          record(s"$fn/$trial/$eps/$chooseMax",
            adcEnum(ev, groups, ApproxFunction(fn, _, eps), eps, chooseMax, 3, k))
      }
      lines.result().mkString("\n")
    }
    for (k <- workerCounts) {
      val text = transcript(k)
      val digest = java.security.MessageDigest.getInstance("SHA-256")
        .digest(text.getBytes("UTF-8")).map("%02x".format(_)).mkString
      assert(digest == "c874a5b464e2ce1672f25b12ab9cc7f57261af803cff6484e669d6de2c5aa9f8",
        s"k=$k\n" + text.linesIterator.map(_.takeRight(60)).mkString("\n"))
    }
  }

  test("root edge cases give the one-worker output and counters under every worker count") {
    val rnd = new Random(18)
    val nPreds = 5
    def randomClasses() = Seq.fill(3 + rnd.nextInt(5))(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(9)))
    def outcomes(classes: Seq[(Set[Int], Long)], eps: Double, maxSize: Int = Int.MaxValue) = {
      val ev = mkEvidence(nPreds, classes, 12)
      workerCounts.map(k => outcome(adcEnum(ev, soloGroups(nPreds), new F1(_), eps, true, maxSize, k)))
    }
    def sameForAll(classes: Seq[(Set[Int], Long)], eps: Double, maxSize: Int = Int.MaxValue) = {
      val all = outcomes(classes, eps, maxSize)
      assert(all.forall(_ == all.head), s"classes=$classes eps=$eps maxSize=$maxSize")
      all.head
    }
    // Base case at the root: at eps = 1 the empty set is the one answer.
    assert(sameForAll(randomClasses(), 1.0) == (Vector(Set.empty[Int]), Seq(1L, 0L, 0L, 0L, 0L)))
    // maxSize 0 stops at the root; maxSize 1 stops at the root's children.
    assert(sameForAll(randomClasses(), 0.0, maxSize = 0) == (Vector.empty, Seq(1L, 0L, 0L, 0L, 0L)))
    (0 until 20).foreach { _ =>
      val classes = randomClasses()
      val (out, _) = sameForAll(classes, 0.05, maxSize = 1)
      assert(out.toSet == bruteMinimalApprox(nPreds, classes.map(_._1).toIndexedSeq,
        classes.map(_._2).toIndexedSeq, soloGroups(nPreds).toIndexedSeq,
        new F1(mkEvidence(nPreds, classes, 12)), 0.05, maxSize = 1))
    }
    // No candidate meets the one uncovered class: the choice returns -1.
    assert(sameForAll(Seq(Set.empty[Int] -> 3L), 0.0) == (Vector.empty, Seq(1L, 0L, 0L, 0L, 0L)))
    // The root picks {0, 1}; its skip child, rest = {2, 3, 4}, leaves both
    // classes violated, so WillCover cuts it, and only {0} remains.
    val (cut, cutCounters) = sameForAll(Seq(Set(0) -> 5L, Set(0, 1) -> 3L), 0.0)
    assert(cut == Vector(Set(0)) && cutCounters(3) >= 1, cutCounters)
    // At the root S is empty and every class is uncovered, so a hit
    // candidate e of F always has F in crit[e]: crit failures come from the
    // tasks, and their sum must match one worker's.
    var critFailures = 0L
    (0 until 30).foreach { _ => critFailures += sameForAll(randomClasses(), 0.02)._2(4) }
    assert(critFailures > 0)
    // A second enumerate() on one parallel instance.
    val ev = mkEvidence(nPreds, randomClasses(), 12)
    for (k <- workerCounts) {
      val e = adcEnum(ev, soloGroups(nPreds), new F1(_), 0.02, k = k)
      assert(outcome(e) == outcome(e), s"k=$k")
    }
  }

  test("a skewed tree splits below the root and gives the one-worker output and counters") {
    // Class 0 = {a, b} is a largest class and first, so the root chooses it,
    // and it holds one pair, within ε, so its skip child is not cut. Every
    // other class is a pair of other predicates, most of them with hub h. At
    // maxSize 2 a hit child a or b may add one predicate, but the skip child
    // two, so its subtree holds most of the nodes. Over the masks without a
    // and b the root is that skip child, so its node count is the subtree's.
    val rnd = new Random(20)
    var skewed = 0
    (0 until 60).foreach { trial =>
      val nPreds = 10 + rnd.nextInt(10)
      val preds = rnd.shuffle((0 until nPreds).toList)
      val (f, h, others) = (Set(preds(0), preds(1)), preds(2), preds.drop(3))
      def other() = others(rnd.nextInt(others.size))
      val classes = (f -> 1L) +: Seq.fill(8 + rnd.nextInt(10)) {
        Set(if (rnd.nextDouble() < 0.7) h else other(), other()) -> (1L + rnd.nextInt(9))
      }
      val (eps, maxSize, groups) = (0.03, 2, soloGroups(nPreds))
      val ev = mkEvidence(nPreds, classes, 20)
      val one = adcEnum(ev, groups, new F1(_), eps, maxSize = maxSize)
      val want = outcome(one)
      assert(one.taskNodes.isEmpty, s"trial $trial: one worker lists no task")
      val skip = adcEnum(mkEvidence(nPreds, classes.map { case (c, w) => (c -- f, w) }, 20), groups,
        new F1(_), eps, maxSize = maxSize)
      skip.enumerate()
      if (2 * skip.nodes > one.nodes && want._1.nonEmpty) {
        skewed += 1
        for (k <- workerCounts.tail) {
          val e = adcEnum(ev, groups, new F1(_), eps, maxSize = maxSize, k = k)
          assert(outcome(e) == want, s"trial $trial k=$k")
          val tasks = e.taskNodes
          assert(e.nodes - tasks.sum > 1, s"trial $trial k=$k: the lister entered no node below the root")
          assert(tasks.nonEmpty && tasks.forall(_ >= 1) && tasks.max < skip.nodes, s"trial $trial k=$k: $tasks")
          assert(outcome(e) == want && e.taskNodes == tasks, s"trial $trial k=$k: second enumerate()")
        }
      }
    }
    assert(skewed >= 30, s"only $skewed skewed trees")
  }

  test("a worker's exception reaches the caller, and no worker thread outlives enumerate()") {
    val k = workerCounts.last
    assume(k > 1, "one core: enumerate() starts no thread")
    def workerThreads = Thread.getAllStackTraces.keySet.asScala.count(_.getName == "AdcEnum-worker")
    val before = workerThreads
    val caller = Thread.currentThread()
    val seen = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    /** f1 that records its threads. On a started thread it counts `entered`
      * down, then throws (with `fail`) or runs slowly; once the caller has
      * listed the tasks and a started thread is alive, the caller's instance
      * waits until a started thread has entered, so one runs a task.
      */
    def recording(fail: Boolean, entered: java.util.concurrent.CountDownLatch)(ev: Evidence) =
      new ApproxFunction {
        val name = "recording"
        private val f1 = new F1(ev)
        def g(viol: Iterator[Int]): Double = f1.g(viol)
        override def g(viol: Array[Long], weight: Long): Double = {
          seen.add(Thread.currentThread())
          if (Thread.currentThread() ne caller) {
            entered.countDown()
            if (fail) throw new IllegalArgumentException("requirement failed: injected")
            Thread.sleep(2)
          } else if (entered.getCount > 0 && workerThreads > before)
            entered.await(10, java.util.concurrent.TimeUnit.SECONDS)
          f1.gFromPairWeight(weight)
        }
      }
    val rnd = new Random(19)
    val nPreds = 8
    val ev = mkEvidence(nPreds, Seq.fill(40)(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(9))), 20)
    def allDone(): Unit = {
      assert(seen.asScala.forall(t => (t eq caller) || !t.isAlive), "a worker thread is still alive")
      assert(workerThreads == before)
    }

    def run(fail: Boolean): Vector[Set[Int]] = {
      val entered = new java.util.concurrent.CountDownLatch(1)
      try adcEnum(ev, soloGroups(nPreds), recording(fail, entered), 0.0, k = k).enumerate()
      finally assert(entered.getCount == 0, "no started thread ran a task")
    }

    assert(run(fail = false) == adcEnum(ev, soloGroups(nPreds), new F1(_), 0.0).enumerate())
    assert(seen.asScala.exists(_ ne caller))
    allDone()

    val injected = intercept[IllegalArgumentException](run(fail = true))
    assert(injected.getMessage == "requirement failed: injected")
    allDone()

    // f2 over evidence without vios fails in whichever worker first walks it.
    val pairs = for (i <- 0 until 8; j <- 0 until 8 if i != j) yield ((i, j), randomSat(rnd, nPreds))
    val noVios = evidenceFromPairs(nPreds, 8, pairs).copy(vios = None)
    val missing = intercept[IllegalStateException](
      adcEnum(noVios, soloGroups(nPreds), new F2(_), 0.2, k = k).enumerate())
    assert(missing.getMessage == intercept[IllegalStateException](noVios.viosOrFail).getMessage)
    allDone()
  }

  test("agrees with generic MMCS at epsilon 0 on random hypergraphs") {
    val rnd = new Random(14)
    (0 until 100).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(6)
      val classes = Seq.fill(1 + rnd.nextInt(6)) {
        rnd.shuffle((0 until nPreds).toList).take(1 + rnd.nextInt(nPreds)).toSet -> 1L
      }
      val got = run(nPreds, classes, 0.0).toSet
      val want = Mmcs.enumerate(nPreds, classes.map(_._1).toIndexedSeq).toSet
      assert(got == want, s"trial $trial")
    }
  }
}
