package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ApproxFunctionSpec extends AnyFunSuite {
  import EnumTestKit._

  /** Random pair-level instance over nTuples tuples and nPreds predicates. */
  private def randomPairs(rnd: Random, nTuples: Int, nPreds: Int): Seq[((Int, Int), Set[Int])] =
    for {
      i <- 0 until nTuples; j <- 0 until nTuples if i != j
    } yield ((i, j),
      (0 until nPreds).filter(_ => rnd.nextBoolean()).toSet match {
        case s if s.isEmpty => Set(rnd.nextInt(nPreds))
        case s              => s
      })

  private def violClasses(ev: Evidence, hs: Set[Int]): Iterator[Int] =
    ev.violatingClasses(hs).iterator

  test("f1 equals violating pairs over ordered pair count") {
    val rnd = new Random(31)
    val pairs = randomPairs(rnd, 8, 4)
    val ev = evidenceFromPairs(4, 8, pairs)
    val f1 = new F1(ev)
    (0 until 50).foreach { _ =>
      val hs = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      val expected = pairs.count { case (_, sat) => (sat & hs).isEmpty }.toDouble / (8 * 7)
      assert(math.abs(f1.g(violClasses(ev, hs)) - expected) < 1e-12)
      assert(f1.pairBased)
    }
  }

  test("f2 equals fraction of tuples involved in violations") {
    val rnd = new Random(32)
    (0 until 30).foreach { trial =>
      val n = 6 + rnd.nextInt(5)
      val pairs = randomPairs(rnd, n, 4)
      val ev = evidenceFromPairs(4, n, pairs)
      val f2 = new F2(ev) // no epsilon hint: exact path always
      val hs = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      val expected = refG2(pairs, hs, n)
      assert(math.abs(f2.g(violClasses(ev, hs)) - expected) < 1e-12, s"trial $trial hs=$hs")
    }
  }

  test("greedy f3 is bounded by the involved-tuple rate and the pair lower bound") {
    // The paper gives no approximation guarantee for GreedyF3 (Sec. 5); the
    // invariants that do hold: it removes at most the involved tuples (so
    // g3greedy <= g2), at least ceil(u / 2(n-1)) tuples, and it is zero
    // exactly when there is no violation.
    val rnd = new Random(33)
    (0 until 50).foreach { trial =>
      val n = 6 + rnd.nextInt(3)
      val pairs = randomPairs(rnd, n, 4)
      val ev = evidenceFromPairs(4, n, pairs)
      val f3 = new GreedyF3(ev)
      val hs = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      val greedy = f3.g(violClasses(ev, hs))
      val g2 = refG2(pairs, hs, n)
      val u = pairs.count { case (_, sat) => (sat & hs).isEmpty }
      val lb = math.ceil(u / (2.0 * (n - 1))) / n
      assert(greedy <= g2 + 1e-12, s"trial $trial: greedy $greedy > g2 $g2")
      assert(greedy >= lb - 1e-12, s"trial $trial: greedy $greedy < lb $lb")
      assert((greedy == 0.0) == (u == 0), s"trial $trial")
      assert(greedy <= 1.0)
    }
  }

  test("greedy f3 equals Fig. 2's SortTuples run on the violating pairs") {
    val rnd = new Random(35)
    (0 until 200).foreach { trial =>
      val n = 2 + rnd.nextInt(12)
      val nPreds = 2 + rnd.nextInt(4)
      val pairs = randomPairs(rnd, n, nPreds)
      val ev = evidenceFromPairs(nPreds, n, pairs)
      val hs = (0 until nPreds).filter(_ => rnd.nextInt(3) == 0).toSet
      assert(new GreedyF3(ev).g(violClasses(ev, hs)) == refGreedyG3(pairs, hs, n),
        s"trial $trial n=$n hs=$hs")
    }
  }

  test("greedy f3 is exact on star-shaped conflict graphs") {
    // One bad tuple (0) conflicting with everyone: remove it alone.
    val n = 8
    val pairs = (1 until n).flatMap(j => Seq(((0, j), Set(0)), ((j, 0), Set(0)))) ++
      (for (i <- 1 until n; j <- 1 until n if i != j) yield ((i, j), Set(1)))
    val ev = evidenceFromPairs(2, n, pairs)
    val f3 = new GreedyF3(ev)
    // DC hitting set {1}: violating classes are those without predicate 1,
    // i.e. all pairs involving tuple 0.
    assert(f3.g(violClasses(ev, Set(1))) == 1.0 / n)
  }

  test("f2 and greedy f3 give the same doubles from the bitset, the iterator and the reference") {
    // The reference takes the kernels' exits in their order: no violation,
    // Prop. 5.3 (g1 > 2ε), for f3 the covering bound, else refG2's tuple
    // count or refGreedyG3's sorted walk. One instance serves every call on an
    // evidence set, so scratch left behind by a call would show in the next.
    val rnd = new Random(39)
    val starN = 8 // tuple 0 conflicts with everyone: v(0) = 2(n-1), the top bucket
    val star = (1 until starN).flatMap(j => Seq(((0, j), Set(0)), ((j, 0), Set(0)))) ++
      (for (i <- 1 until starN; j <- 1 until starN if i != j) yield ((i, j), Set(1)))
    val instances = (star, starN, 2) +: Seq.fill(60) {
      val n = 2 + rnd.nextInt(12); val nPreds = 2 + rnd.nextInt(4)
      (randomPairs(rnd, n, nPreds), n, nPreds)
    }
    val exits = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    var topBucketWalks = 0
    instances.zipWithIndex.foreach { case ((pairs, n, nPreds), trial) =>
      val ev = evidenceFromPairs(nPreds, n, pairs)
      val eps = Seq(0.01, 0.02, 0.05, 0.1, 0.3)(rnd.nextInt(5))
      val fns = Seq[(ApproxFunction, Double)](
        new F2(ev) -> Double.PositiveInfinity, new F2(ev, eps) -> eps,
        new GreedyF3(ev) -> Double.PositiveInfinity, new GreedyF3(ev, eps) -> eps)
      val subsets = (0 until nPreds).toSet.subsets().toSeq
      for (hs <- subsets ++ rnd.shuffle(subsets)) {
        val bad = pairs.filter { case (_, sat) => (sat & hs).isEmpty }
        val u = bad.size.toLong
        val vMax = bad.flatMap { case ((i, j), _) => Seq(i, j) }
          .groupBy(identity).values.map(_.size).maxOption.getOrElse(0)
        val viol = ev.violatingClasses(hs)
        val (words, weight) = ApproxFunction.classSet(ev.counts, viol)
        assert(weight == u)
        for ((fn, hint) <- fns) {
          val g1 = u / (n.toLong * (n - 1)).toDouble
          val lb = math.ceil(u / (2.0 * (n - 1))) / n
          val (want, exit) =
            if (u == 0L) (0.0, "zero")
            else if (g1 > 2.0 * hint) (g1 / 2.0, "Prop. 5.3")
            else if (fn.name == "f3" && lb > hint) (lb, "covering bound")
            else if (fn.name == "f2") (refG2(pairs, hs, n), "f2 walk")
            else (refGreedyG3(pairs, hs, n), "f3 walk")
          exits(exit) += 1
          if (exit == "f3 walk" && vMax == 2 * (n - 1)) topBucketWalks += 1
          val clue = s"trial $trial n=$n hs=$hs fn=${fn.name} hint=$hint exit=$exit"
          assert(fn.g(words, weight) == want, clue)
          assert(fn.g(viol.iterator) == want, clue)
        }
      }
    }
    assert(exits.keySet == Set("zero", "Prop. 5.3", "covering bound", "f2 walk", "f3 walk"),
      s"exits taken: $exits")
    assert(topBucketWalks > 0, "no f3 walk reached the top bucket")
  }

  test("two instances each of f2 and greedy f3 over one evidence give the references on 2 threads") {
    // ADCEnum gives each worker its own instance of f. Instances share the
    // evidence and nothing else, so interleaved evaluations on two threads
    // must each give the reference value.
    assume(Runtime.getRuntime.availableProcessors >= 2, "one core")
    val rnd = new Random(40)
    val (n, nPreds) = (12, 5)
    val pairs = randomPairs(rnd, n, nPreds)
    val ev = evidenceFromPairs(nPreds, n, pairs)
    val subsets = (0 until nPreds).toSet.subsets().toVector
    val want = subsets.map(hs => (refG2(pairs, hs, n), refGreedyG3(pairs, hs, n)))
    val args = subsets.map(hs => ApproxFunction.classSet(ev.counts, ev.violatingClasses(hs)))
    val barrier = new java.util.concurrent.CyclicBarrier(2)
    val wrong = new java.util.concurrent.ConcurrentLinkedQueue[String]
    def evaluate(seed: Int): Unit = {
      val (f2, f3) = (new F2(ev), new GreedyF3(ev))
      val r = new Random(seed)
      for (_ <- 0 until 500) {
        barrier.await(10, java.util.concurrent.TimeUnit.SECONDS)
        val i = r.nextInt(subsets.size)
        val (words, weight) = args(i)
        if (f2.g(words, weight) != want(i)._1) wrong.add(s"f2 ${subsets(i)}")
        if (f3.g(words, weight) != want(i)._2) wrong.add(s"f3 ${subsets(i)}")
      }
    }
    val other = new Thread(() => evaluate(1))
    other.start()
    try evaluate(2) finally other.join()
    assert(wrong.isEmpty, wrong)
  }

  test("the default bitset entry gives pair-based functions the weight, others the class ids") {
    val ids = scala.collection.mutable.ArrayBuffer.empty[Int]
    val recording = new ApproxFunction {
      val name = "recording"
      def g(viol: Iterator[Int]): Double = { ids ++= viol; 0.0 }
    }
    val words = new Array[Long](4) // word 2 stays empty
    Seq(0, 63, 64, 200).foreach(Bits.set(words, _))
    recording.g(words, 7L)
    assert(ids == Seq(0, 63, 64, 200))
    ids.clear()
    recording.g(new Array[Long](3), 0L)
    assert(ids.isEmpty)
    val ev = mkEvidence(2, Seq(Set(0) -> 3L, Set(1) -> 4L), 5)
    for (fn <- Seq(new F1(ev), new F1Adjusted(ev, 0.05))) {
      val (bits, weight) = ApproxFunction.classSet(ev.counts, Seq(1))
      assert(fn.g(bits, weight) == fn.g(Iterator(1)), fn.name)
    }
  }

  test("monotonicity: adding predicates to the hitting set never raises g") {
    val rnd = new Random(34)
    (0 until 30).foreach { trial =>
      val n = 7
      val pairs = randomPairs(rnd, n, 5)
      val ev = evidenceFromPairs(5, n, pairs)
      for (fn <- Seq(new F1(ev), new F2(ev), new GreedyF3(ev))) {
        val hs = (0 until 5).filter(_ => rnd.nextBoolean()).toSet
        val bigger = hs + rnd.nextInt(5)
        // g is an exception rate: larger hitting set -> fewer violations for
        // f1/f2; the greedy f3 surrogate is monotone in the violation set too.
        val gSmall = fn.g(violClasses(ev, hs))
        val gBig = fn.g(violClasses(ev, bigger))
        assert(gBig <= gSmall + 1e-12, s"trial $trial fn=${fn.name} hs=$hs")
      }
    }
  }

  test("indifference to redundancy: g depends only on the violating pairs") {
    val rnd = new Random(35)
    val n = 8
    // Predicate 4 is satisfied exactly when predicate 3 is (redundant twin).
    val pairs = (for (i <- 0 until n; j <- 0 until n if i != j) yield {
      val base = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      val sat = if (base(3)) base + 4 else base
      ((i, j), if (sat.isEmpty) Set(rnd.nextInt(3)) else sat)
    })
    val ev = evidenceFromPairs(5, n, pairs)
    for (fn <- Seq(new F1(ev), new F2(ev), new GreedyF3(ev))) {
      val g34 = fn.g(violClasses(ev, Set(0, 3, 4)))
      val g3 = fn.g(violClasses(ev, Set(0, 3)))
      assert(math.abs(g34 - g3) < 1e-12, fn.name)
    }
  }

  test("proposition 5.3: g2<=eps or g3<=eps implies g1<=2eps") {
    val rnd = new Random(36)
    (0 until 50).foreach { trial =>
      val n = 6 + rnd.nextInt(4)
      val pairs = randomPairs(rnd, n, 4)
      val ev = evidenceFromPairs(4, n, pairs)
      val hs = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      val g1 = new F1(ev).g(violClasses(ev, hs))
      val g2 = new F2(ev).g(violClasses(ev, hs))
      val g3ex = refG3Exact(pairs, hs, n)
      assert(g1 <= 2 * g2 + 1e-12, s"trial $trial")
      assert(g1 <= 2 * g3ex + 1e-12, s"trial $trial")
    }
  }

  test("prop 5.3 fast path preserves threshold decisions") {
    val rnd = new Random(37)
    (0 until 50).foreach { trial =>
      val n = 8
      val pairs = randomPairs(rnd, n, 4)
      val ev = evidenceFromPairs(4, n, pairs)
      val eps = Seq(0.001, 0.01, 0.1)(rnd.nextInt(3))
      val hs = (0 until 4).filter(_ => rnd.nextBoolean()).toSet
      for ((hinted, exact) <- Seq(
        (new F2(ev, eps): ApproxFunction, new F2(ev): ApproxFunction),
        (new GreedyF3(ev, eps): ApproxFunction, new GreedyF3(ev): ApproxFunction))) {
        val a = hinted.g(violClasses(ev, hs)) <= eps
        val b = exact.g(violClasses(ev, hs)) <= eps
        assert(a == b, s"trial $trial fn=${hinted.name} eps=$eps")
      }
    }
  }

  test("f1adj exceeds f1 and converges to it as the sample grows") {
    val rnd = new Random(38)
    val small = evidenceFromPairs(3, 8, randomPairs(rnd, 8, 3))
    val hs = Set(0)
    val g1s = new F1(small).g(violClasses(small, hs))
    val gAdjS = new F1Adjusted(small, 0.05).g(violClasses(small, hs))
    assert(gAdjS >= g1s)
    // Same p-hat at a much larger pair count: the correction term shrinks.
    val corrSmall = gAdjS - g1s
    val big = evidenceFromPairs(3, 40, randomPairs(rnd, 40, 3))
    val g1b = new F1(big).g(violClasses(big, hs))
    val gAdjB = new F1Adjusted(big, 0.05).g(violClasses(big, hs))
    assert(gAdjB - g1b < corrSmall)
  }

  test("factory wires names, vios requirement is reported") {
    val ev = mkEvidence(2, Seq(Set(0) -> 1L), 5) // no vios
    assert(ApproxFunction("f1", ev, 0.1).name == "f1")
    assert(ApproxFunction("f1adj", ev, 0.1).name == "f1adj")
    assert(ApproxFunction.needsVios("f2") && ApproxFunction.needsVios("f3"))
    assert(!ApproxFunction.needsVios("f1"))
    intercept[IllegalArgumentException](ApproxFunction("bogus", ev, 0.1))
    // f2 without vios fails loudly when evaluated on a violating class.
    val f2 = new F2(ev)
    intercept[IllegalStateException](f2.g(Iterator(0)))
  }
}
