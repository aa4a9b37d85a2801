package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DenialConstraintSpec extends AnyFunSuite {

  private def p(sa: Int, ca: Int, sb: Int, cb: Int, op: Op) =
    Predicate.normalized(ColRef(sa, ca), ColRef(sb, cb), op)

  /** A random DC of 1 to 4 predicates over 3 columns, mixing single-tuple
    * and cross-tuple predicates.
    */
  private def randomDc(rnd: Random): DenialConstraint =
    DenialConstraint(Seq.fill(1 + rnd.nextInt(4)) {
      val a = ColRef(rnd.nextInt(2), rnd.nextInt(3))
      val b = Iterator.continually(ColRef(rnd.nextInt(2), rnd.nextInt(3))).find(_ != a).get
      Predicate.normalized(a, b, Op.all(rnd.nextInt(Op.all.size)))
    }.toSet)

  test("canonical is invariant under tuple swap") {
    val dc = DenialConstraint(Set(p(0, 0, 1, 0, Op.Eq), p(0, 1, 1, 1, Op.Lt)))
    assert(dc.canonical == dc.swapTuples.canonical)
  }

  test("canonical is idempotent") {
    val dc = DenialConstraint(Set(p(0, 0, 0, 1, Op.Lt)))
    assert(dc.canonical.canonical == dc.canonical)
  }

  test("canonical picks one of {dc, swapped dc}, swap-invariantly, on random DCs") {
    val rnd = new Random(21)
    (0 until 500).foreach { trial =>
      val dc = randomDc(rnd)
      val c = dc.canonical
      assert(dc.swapTuples.swapTuples == dc, s"trial $trial: swap is not an involution on $dc")
      assert(c == dc || c == dc.swapTuples, s"trial $trial: $c is not $dc or its swap")
      assert(dc.swapTuples.canonical == c, s"trial $trial: $dc")
      assert(c.canonical == c, s"trial $trial: $dc")
    }
  }

  test("distinctCanonical merges swapped twins") {
    val a = DenialConstraint(Set(p(0, 0, 0, 1, Op.Lt)))      // on t
    val b = a.swapTuples                                      // on t'
    val out = DenialConstraint.distinctCanonical(Seq(a, b))
    assert(out.size == 1)
  }

  test("distinctCanonical keeps genuinely different DCs") {
    val a = DenialConstraint(Set(p(0, 0, 1, 0, Op.Eq)))
    val b = DenialConstraint(Set(p(0, 1, 1, 1, Op.Eq)))
    assert(DenialConstraint.distinctCanonical(Seq(a, b)).size == 2)
  }

  test("distinctCanonical keeps one DC per swap class on random bags") {
    val rnd = new Random(22)
    (0 until 100).foreach { trial =>
      val dcs = Seq.fill(1 + rnd.nextInt(12))(randomDc(rnd))
      val swapClasses = dcs.map(dc => Set(dc, dc.swapTuples)).distinct
      val out = DenialConstraint.distinctCanonical(dcs ++ dcs.map(_.swapTuples))
      assert(out.size == swapClasses.size, s"trial $trial")
      assert(out.forall(dc => dc.canonical == dc), s"trial $trial")
      assert(swapClasses.forall(cls => out.count(cls) == 1), s"trial $trial")
      assert(DenialConstraint.distinctCanonical(rnd.shuffle(dcs)) ==
        DenialConstraint.distinctCanonical(dcs), s"trial $trial: order-dependent")
    }
  }

  test("pretty formats the conjunction") {
    val dc = DenialConstraint(Set(p(0, 0, 1, 0, Op.Eq), p(0, 1, 1, 1, Op.Neq)))
    val s = dc.pretty(IndexedSeq("zip", "state"))
    assert(s == "not(t.zip = t'.zip and t.state != t'.state)")
  }
}
