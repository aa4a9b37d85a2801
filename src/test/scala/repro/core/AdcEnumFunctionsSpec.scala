package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** ADCEnum and SearchMC under the non-pair-based functions f2 / greedy-f3,
  * cross-checked against brute force on pair-level instances.
  */
class AdcEnumFunctionsSpec extends AnyFunSuite {
  import EnumTestKit._

  private def randomPairs(rnd: Random, nTuples: Int, nPreds: Int): Seq[((Int, Int), Set[Int])] =
    for (i <- 0 until nTuples; j <- 0 until nTuples if i != j) yield {
      val s = (0 until nPreds).filter(_ => rnd.nextBoolean()).toSet
      ((i, j), if (s.isEmpty) Set(rnd.nextInt(nPreds)) else s)
    }

  private def classSets(ev: Evidence, nPreds: Int): IndexedSeq[Set[Int]] =
    ev.masks.indices.map(c => (0 until nPreds).filter(ev.has(c, _)).toSet)

  test("f2 enumeration matches brute force on 100 random instances") {
    val rnd = new Random(51)
    (0 until 100).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(4)
      val n = 5 + rnd.nextInt(4)
      val ev = evidenceFromPairs(nPreds, n, randomPairs(rnd, n, nPreds))
      val eps = Seq(0.0, 0.2, 0.5)(rnd.nextInt(3))
      val fn = new F2(ev) // exact path
      val got = underEveryK(s"trial $trial eps=$eps")(
        k => adcEnum(ev, soloGroups(nPreds), new F2(_), eps, k = k)).toSet
      val want = bruteMinimalApprox(nPreds, classSets(ev, nPreds),
        ev.counts.toIndexedSeq, soloGroups(nPreds).toIndexedSeq, fn, eps)
      assert(got == want, s"trial $trial eps=$eps")
    }
  }

  test("greedy f3 enumeration matches brute force on 100 random instances") {
    val rnd = new Random(52)
    (0 until 100).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(4)
      val n = 5 + rnd.nextInt(4)
      val ev = evidenceFromPairs(nPreds, n, randomPairs(rnd, n, nPreds))
      val eps = Seq(0.0, 0.15, 0.4)(rnd.nextInt(3))
      val fn = new GreedyF3(ev)
      val got = underEveryK(s"trial $trial eps=$eps")(
        k => adcEnum(ev, soloGroups(nPreds), new GreedyF3(_), eps, k = k)).toSet
      val want = bruteMinimalApprox(nPreds, classSets(ev, nPreds),
        ev.counts.toIndexedSeq, soloGroups(nPreds).toIndexedSeq, fn, eps)
      assert(got == want, s"trial $trial eps=$eps")
    }
  }

  test("f2 and greedy f3 enumeration match brute force across 64-bit word boundaries") {
    val rnd = new Random(55)
    // (tuples, predicates, maxSize): 8 uniform predicates over 6 to 16 tuples
    // give about 30 to 160 classes; 70 predicates need two mask words.
    val shapes = Seq(6, 9, 10, 12, 16).map((_, 8, Int.MaxValue)) ++ Seq((7, 70, 2), (9, 70, 2))
    var wideHits = 0
    val classCounts = for ((n, nPreds, cap) <- shapes) yield {
      val pairs =
        if (nPreds <= 64) randomPairs(rnd, n, nPreds)
        else for (i <- 0 until n; j <- 0 until n if i != j) yield ((i, j), randomSat(rnd, nPreds))
      val ev = evidenceFromPairs(nPreds, n, pairs)
      for (make <- Seq[Evidence => ApproxFunction](new F2(_), new GreedyF3(_)); eps <- Seq(0.0, 0.3, 0.6)) {
        val fn = make(ev)
        val want = bruteMinimalApprox(nPreds, classSets(ev, nPreds), ev.counts.toIndexedSeq,
          soloGroups(nPreds).toIndexedSeq, fn, eps, cap)
        wideHits += want.count(_.exists(_ >= 64))
        for (chooseMax <- Seq(true, false)) {
          val clue = s"n=$n preds=$nPreds fn=${fn.name} eps=$eps chooseMax=$chooseMax"
          val got = underEveryK(clue)(adcEnum(ev, soloGroups(nPreds), make, eps, chooseMax, cap, _))
          assert(got.size == got.toSet.size, clue)
          // Greedy f3 is not monotone on every instance (g3 can rise when a
          // predicate joins the hitting set), so Thm. 6.1's completeness holds
          // for f2 only; every set found must still be minimal.
          if (fn.name == "f2") assert(got.toSet == want, clue)
          else assert(got.toSet.subsetOf(want), clue)
        }
      }
      ev.nClasses
    }
    assert(classCounts.exists(_ < 64) && classCounts.exists(c => c > 64 && c <= 128) &&
      classCounts.exists(_ > 128), s"class counts $classCounts miss a word boundary")
    assert(wideHits > 0, "no expected hitting set uses a predicate beyond the first word")
  }

  test("SearchMC agrees with ADCEnum under f2/f3 on 100 random instances") {
    val rnd = new Random(53)
    (0 until 100).foreach { trial =>
      val nPreds = 2 + rnd.nextInt(5)
      val n = 5 + rnd.nextInt(4)
      val ev = evidenceFromPairs(nPreds, n, randomPairs(rnd, n, nPreds))
      val eps = Seq(0.0, 0.2)(rnd.nextInt(2))
      val fn: ApproxFunction =
        if (rnd.nextBoolean()) new F2(ev) else new GreedyF3(ev)
      val a = new AdcEnum(ev.masks, ev.counts, nPreds, soloGroups(nPreds), fn, eps)
        .enumerate().toSet
      val b = new SearchMC(ev.masks, ev.counts, nPreds, soloGroups(nPreds), fn, eps)
        .enumerate().toSet
      assert(a == b, s"trial $trial fn=${fn.name} eps=$eps")
    }
  }

  test("f1adj enumeration is a subset-biased variant of f1") {
    val rnd = new Random(54)
    (0 until 50).foreach { trial =>
      val nPreds = 3 + rnd.nextInt(3)
      val n = 6 + rnd.nextInt(4)
      val ev = evidenceFromPairs(nPreds, n, randomPairs(rnd, n, nPreds))
      val eps = 0.3
      val f1Out = new AdcEnum(ev.masks, ev.counts, nPreds, soloGroups(nPreds),
        new F1(ev), eps).enumerate().toSet
      val adjOut = new AdcEnum(ev.masks, ev.counts, nPreds, soloGroups(nPreds),
        new F1Adjusted(ev, 0.05), eps).enumerate().toSet
      // Every adjusted-accepted hitting set also passes plain f1 at eps.
      adjOut.foreach { hs =>
        assert(new F1(ev).g(ev.violatingClasses(hs).iterator) <= eps, s"trial $trial")
      }
      // And the adjusted criterion never accepts more sets than f1 would
      // accept in total (it is pointwise stricter).
      val f1Accepts = (s: Set[Int]) => new F1(ev).g(ev.violatingClasses(s).iterator) <= eps
      assert(adjOut.forall(f1Accepts), s"trial $trial")
    }
  }
}
