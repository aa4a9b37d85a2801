package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PredicateSpec extends AnyFunSuite {

  private val t0A = ColRef(0, 0)
  private val t1A = ColRef(1, 0)
  private val t0B = ColRef(0, 1)
  private val t1B = ColRef(1, 1)

  test("normalized keeps ordered operands") {
    val p = Predicate.normalized(t0A, t1A, Op.Lt)
    assert(p.a == t0A && p.b == t1A && p.op == Op.Lt)
  }

  test("normalized flips reversed operands and inverts the operator") {
    val p = Predicate.normalized(t1A, t0A, Op.Lt)
    assert(p.a == t0A && p.b == t1A && p.op == Op.Gt)
  }

  test("normalized orders same-side columns") {
    val p = Predicate.normalized(t0B, t0A, Op.Leq)
    assert(p.a == t0A && p.b == t0B && p.op == Op.Geq)
  }

  test("self-comparison is rejected") {
    intercept[IllegalArgumentException](Predicate.normalized(t0A, t0A, Op.Eq))
  }

  test("complement flips only the operator") {
    val p = Predicate.normalized(t0A, t1B, Op.Geq)
    assert(p.complement == Predicate(t0A, t1B, Op.Lt))
    assert(p.complement.complement == p)
  }

  test("swapTuples on same-column cross-tuple inverts the operator") {
    // t.A < t'.A under t <-> t' becomes t'.A < t.A == t.A > t'.A
    val p = Predicate.normalized(t0A, t1A, Op.Lt)
    assert(p.swapTuples == Predicate(t0A, t1A, Op.Gt))
  }

  test("swapTuples on equality same-column predicate is identity") {
    val p = Predicate.normalized(t0A, t1A, Op.Eq)
    assert(p.swapTuples == p)
  }

  test("swapTuples moves single-tuple predicates to the other side") {
    val p = Predicate.normalized(t0A, t0B, Op.Lt)
    assert(p.swapTuples == Predicate(t1A, t1B, Op.Lt))
    assert(p.swapTuples.swapTuples == p)
  }

  test("swapTuples on cross-column cross-tuple renormalises") {
    // t.A < t'.B  --swap-->  t'.A < t.B  ==  t.B > t'.A
    val p = Predicate.normalized(t0A, t1B, Op.Lt)
    assert(p.swapTuples == Predicate(t0B, t1A, Op.Gt))
  }

  test("swapTuples is always an involution") {
    val rnd = new Random(4)
    (0 until 300).foreach { _ =>
      val a = ColRef(rnd.nextInt(2), rnd.nextInt(5))
      var b = ColRef(rnd.nextInt(2), rnd.nextInt(5))
      if (a == b) b = ColRef(1 - a.side, a.col)
      val p = Predicate.normalized(a, b, Op.all(rnd.nextInt(6)))
      assert(p.swapTuples.swapTuples == p)
      assert(p.complement.swapTuples == p.swapTuples.complement)
    }
  }

  test("groupKey ignores the operator") {
    val ps = Op.all.map(Predicate.normalized(t0A, t1A, _))
    assert(ps.map(_.groupKey).distinct.size == 1)
  }

  test("pretty uses column names and sides") {
    val names = IndexedSeq("inc", "tax")
    assert(Predicate.normalized(t0A, t1B, Op.Gt).pretty(names) == "t.inc > t'.tax")
    assert(Predicate.normalized(t0A, t0B, Op.Leq).pretty(names) == "t.inc <= t.tax")
  }
}
