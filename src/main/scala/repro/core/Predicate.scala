package repro.core

/** A column reference inside a predicate: `side` 0 refers to the tuple
  * variable t, side 1 to t'; `col` is the attribute index in the relation.
  */
final case class ColRef(side: Int, col: Int) extends Serializable {
  require(side == 0 || side == 1, s"side must be 0 (t) or 1 (t'): $side")

  /** Swap t and t' (used to canonicalise a DC under tuple renaming). */
  def swapped: ColRef = ColRef(1 - side, col)
}

object ColRef {
  implicit val ordering: Ordering[ColRef] = Ordering.by(r => (r.side, r.col))
}

/** A predicate `x[A] op y[B]` over a tuple pair, where x, y ∈ {t, t'}.
  *
  * Predicates are kept in a normal form with `a <= b` under (side, col)
  * ordering, flipping the operator when the operands are swapped, so e.g.
  * `t'.A < t.B` is represented as `t.B > t'.A`. Construct via
  * [[Predicate.normalized]] to maintain the invariant.
  *
  * The pair (a, b) — ignoring the operator — is the predicate's *group*:
  * predicates in one group are mutually redundant/contradictory inside a
  * single DC, which drives `RemoveRedundantPreds` in ADCEnum.
  */
final case class Predicate(a: ColRef, b: ColRef, op: Op) extends Serializable {

  /** The predicate satisfied by exactly the pairs this one is not. */
  def complement: Predicate = copy(op = op.complement)

  /** Group key: the operand pair, shared by all operators over it. */
  def groupKey: (ColRef, ColRef) = (a, b)

  /** The same semantic predicate with tuple variables t and t' swapped,
    * renormalised. E.g. `t.A < t'.A` becomes `t.A > t'.A`.
    */
  def swapTuples: Predicate = Predicate.normalized(a.swapped, b.swapped, op)

  /** Sort key used for deterministic output and canonical comparison. */
  def sortKey: (Int, Int, Int, Int, Int) = (a.side, a.col, b.side, b.col, op.id)

  def pretty(colNames: IndexedSeq[String]): String = {
    def ref(r: ColRef) = (if (r.side == 0) "t." else "t'.") + colNames(r.col)
    s"${ref(a)} ${op.sym} ${ref(b)}"
  }

  override def toString: String = {
    def ref(r: ColRef) = (if (r.side == 0) "t.c" else "t'.c") + r.col
    s"${ref(a)} ${op.sym} ${ref(b)}"
  }
}

object Predicate {

  /** Construct a predicate in normal form (left operand minimal under
    * (side, col) ordering), flipping the operator if needed.
    */
  def normalized(x: ColRef, y: ColRef, op: Op): Predicate = {
    require(x != y, s"trivial self-comparison $x $op $y")
    if (ColRef.ordering.lteq(x, y)) Predicate(x, y, op)
    else Predicate(y, x, op.inverse)
  }

  implicit val ordering: Ordering[Predicate] = Ordering.by(_.sortKey)
}
