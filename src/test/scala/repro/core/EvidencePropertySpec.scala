package repro.core

import repro.{Fixtures, SparkSpec}
import scala.util.Random

/** Structural properties of evidence sets on randomized relations. */
class EvidencePropertySpec extends SparkSpec {

  private def build(n: Int, seed: Long): (PredicateSpace, EncodedRelation, Evidence) = {
    val df = Fixtures.smallMixed(spark, n, seed)
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    val rel = EncodedRelation.fromDataFrame(df)
    (space, rel, EvidenceBuilder.build(spark, rel, space, needVios = true))
  }

  test("per-class complement exclusivity: exactly one of p/complement set") {
    val (space, _, ev) = build(25, 21L)
    for (c <- 0 until ev.nClasses; p <- 0 until space.size) {
      val cp = space.complementOf(p)
      assert(ev.has(c, p) != ev.has(c, cp), s"class $c pred $p")
    }
  }

  test("swap symmetry: the mirrored mask of every class is a class with equal count") {
    val (space, _, ev) = build(22, 22L)
    // mask of Sat(j,i) = swap-image of mask of Sat(i,j)
    def swapMask(c: Int): List[Int] =
      (0 until space.size).filter(ev.has(c, _)).map(space.swapOf).sorted.toList
    val index = (0 until ev.nClasses)
      .map(c => (0 until space.size).filter(ev.has(c, _)).toList -> ev.counts(c)).toMap
    (0 until ev.nClasses).foreach { c =>
      val sw = swapMask(c)
      assert(index.contains(sw), s"missing mirror of class $c")
      assert(index(sw) == ev.counts(c), s"mirror count differs for class $c")
    }
  }

  test("violationsOf is antitone in the hitting set") {
    val (space, _, ev) = build(20, 23L)
    val rnd = new Random(24)
    (0 until 50).foreach { _ =>
      val hs = (0 until space.size).filter(_ => rnd.nextInt(8) == 0).toSet
      val bigger = hs + rnd.nextInt(space.size)
      assert(ev.violationsOf(bigger) <= ev.violationsOf(hs))
    }
  }

  test("empty hitting set is violated by all pairs; full set by none") {
    val (space, _, ev) = build(18, 25L)
    assert(ev.violationsOf(Set.empty) == ev.totalPairs)
    assert(ev.violationsOf((0 until space.size).toSet) == 0L)
  }

  test("vios tuples cover exactly the tuples of each class's pairs") {
    // 16, 37 and 60 rows: the scan spans several slices of one or more rows.
    for (n <- Seq(16, 37, 60)) {
      val (space, rel, ev) = build(n, 26L)
      // Recompute pair classes directly; each pair counts once per endpoint.
      val classOfPair = for (i <- 0 until rel.n; j <- 0 until rel.n if i != j) yield {
        val sat = (0 until space.size).filter(p => rel.eval(space.predicates(p), i, j)).toSet
        (i, j) -> sat
      }
      val byClass = classOfPair.groupBy(_._2)
      val index = (0 until ev.nClasses)
        .map(c => (0 until space.size).filter(ev.has(c, _)).toSet -> c).toMap
      assert(byClass.size == ev.nClasses, s"n=$n")
      byClass.foreach { case (sat, pairs) =>
        val c = index(sat)
        val expect = pairs.flatMap(p => Seq(p._1._1, p._1._2))
          .groupBy(identity).map { case (t, ts) => t -> ts.size.toLong }
        val got = ev.viosOf(c).map(e => Evidence.tidOf(e) -> Evidence.cntOf(e))
        assert(got.map(_._1).distinct.length == got.length, s"n=$n class $c: repeated tid")
        assert(got.toMap == expect, s"n=$n class $c")
        assert(ev.counts(c) == pairs.size)
      }
    }
  }

  test("evidence is deterministic across builds") {
    val (_, rel, ev1) = build(20, 27L)
    val df = Fixtures.smallMixed(spark, 20, 27L)
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    val ev2 = EvidenceBuilder.build(spark, rel, space, needVios = true)
    def canon(e: Evidence) = e.masks.zip(e.counts).map { case (m, c) => (m.toSeq, c) }.toSet
    assert(canon(ev1) == canon(ev2))
  }
}
