package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Random

class ExperimentsSpec extends AnyFunSuite {
  import EnumTestKit._

  test("validExtensions are the valid minimal hitting sets that contain hg") {
    val rnd = new Random(21)
    var found = 0
    (0 until 200).foreach { trial =>
      val nPreds = 3 + rnd.nextInt(6)
      val classes = Seq.fill(1 + rnd.nextInt(8))(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(5)))
      val groups = if (rnd.nextBoolean()) soloGroups(nPreds) else Array.tabulate(nPreds)(_ / 2)
      val ev = mkEvidence(nPreds, classes, 10)
      val cap = 2 + rnd.nextInt(3)
      val all = new AdcEnum(ev.masks, ev.counts, nPreds, groups, new F1(ev), 0.0, true, cap)
        .enumerate()
      // Half the trials take hg inside a valid set, the others anywhere.
      val hg =
        if (all.nonEmpty && rnd.nextBoolean()) {
          val v = all(rnd.nextInt(all.size)).toList
          if (v.isEmpty) Set.empty[Int] else rnd.shuffle(v).take(1 + rnd.nextInt(v.size)).toSet
        } else rnd.shuffle((0 until nPreds).toList).take(1 + rnd.nextInt(2)).toSet
      val want = all.filter(hg.subsetOf).toSet
      val got = Experiments.validExtensions(ev, groups, hg, cap)
      assert(got.toSet == want && got.size == want.size, s"trial $trial hg=$hg classes=$classes")
      if (want.nonEmpty) found += 1
    }
    assert(found > 50, s"only $found trials had a valid set containing hg")
  }

  test("isMinimalAdc holds exactly for the hitting sets ADCEnum outputs") {
    val rnd = new Random(22)
    var hits = 0
    (0 until 200).foreach { trial =>
      val nPreds = 3 + rnd.nextInt(5)
      val classes = Seq.fill(1 + rnd.nextInt(8))(randomSat(rnd, nPreds) -> (1L + rnd.nextInt(5)))
      val groups = if (rnd.nextBoolean()) soloGroups(nPreds) else Array.tabulate(nPreds)(_ / 2)
      val ev = mkEvidence(nPreds, classes, 10)
      val eps = Seq(0.0, 0.03, 0.1)(rnd.nextInt(3))
      val cap = 1 + rnd.nextInt(3)
      val out = new AdcEnum(ev.masks, ev.counts, nPreds, groups, new F1(ev), eps, true, cap)
        .enumerate().toSet
      (0 until nPreds).toSet.subsets().foreach { hs =>
        assert(Experiments.isMinimalAdc(ev, groups, hs, eps, cap) == out(hs),
          s"trial $trial hs=$hs eps=$eps cap=$cap classes=$classes")
      }
      hits += out.size
    }
    assert(hits > 100)
  }
}
