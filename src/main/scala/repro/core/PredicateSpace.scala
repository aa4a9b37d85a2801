package repro.core

import org.apache.spark.sql.DataFrame

/** The predicate space P_R over a relation (Sec. 4.2, component 1).
  *
  * Following Chu et al. [11], the space contains, for every attribute A,
  * the cross-tuple predicates `t[A] op t'[A]`, and for every *comparable*
  * attribute pair (A, B) the same-tuple predicates `t[A] op t[B]`,
  * `t'[A] op t'[B]` and the cross-tuple predicates `t[A] op t'[B]`,
  * `t[B] op t'[A]`. Numeric pairs get all six operators, string pairs only
  * {=, !=}. Two distinct attributes are comparable when they have the same
  * type class and share at least `overlapThreshold` (default 30%, as in
  * [11, 37]) of their distinct values.
  */
final class PredicateSpace(
    val colNames: IndexedSeq[String],
    val colIsNumeric: IndexedSeq[Boolean],
    val predicates: IndexedSeq[Predicate],
) extends Serializable {

  val size: Int = predicates.size

  /** Predicate → index in this space. */
  val indexOf: Map[Predicate, Int] = predicates.zipWithIndex.toMap

  /** Index of each predicate's complement (always present in the space). */
  val complementOf: Array[Int] =
    predicates.map(p => indexOf(p.complement)).toArray

  /** Index of each predicate's t/t′ swap image: Sat(j, i) = swapOf(Sat(i, j)),
    * which the evidence builders use to derive `vios`.
    */
  val swapOf: Array[Int] = predicates.map { p =>
    indexOf.getOrElse(p.swapTuples, throw new IllegalArgumentException(
      s"predicate space is not closed under swapping t and t': ${p.pretty(colNames)} " +
        s"has no swap image ${p.swapTuples.pretty(colNames)}"))
  }.toArray

  /** Group id per predicate — predicates over the same operand pair. */
  val groupOf: Array[Int] = {
    val keys = predicates.map(_.groupKey).distinct.zipWithIndex.toMap
    predicates.map(p => keys(p.groupKey)).toArray
  }

  /** Members of each group, by group id. */
  val groupMembers: Array[Array[Int]] = {
    val nGroups = if (groupOf.isEmpty) 0 else groupOf.max + 1
    val buf = Array.fill(nGroups)(Vector.newBuilder[Int])
    predicates.indices.foreach(i => buf(groupOf(i)) += i)
    buf.map(_.result().toArray)
  }

  /** The DC whose predicate set is the complement of hitting set `hs`. */
  def dcFromHittingSet(hs: Iterable[Int]): DenialConstraint =
    DenialConstraint(hs.map(i => predicates(complementOf(i))).toSet)
}

object PredicateSpace {

  /** Build the predicate space for `df`'s relation; see the overload. */
  def build(df: DataFrame, overlapThreshold: Double = 0.3): PredicateSpace =
    build(EncodedRelation.fromDataFrame(df), overlapThreshold)

  /** Build the predicate space for an encoded relation. The 30%-common-values
    * profiling runs on the driver over the encoding the predicates evaluate,
    * so it compares values exactly as they do. The miner profiles all of D. */
  def build(rel: EncodedRelation, overlapThreshold: Double): PredicateSpace = {
    val names = rel.names.toIndexedSeq
    val numeric = rel.isNumeric.toIndexedSeq
    val k = names.size
    val comparable = overlappingPairs(rel, overlapThreshold)

    val preds = Vector.newBuilder[Predicate]
    def opsFor(a: Int, b: Int): Vector[Op] =
      if (numeric(a) && numeric(b)) Op.all else Op.equality

    // Same attribute, cross tuple: always generated.
    for (c <- 0 until k; op <- opsFor(c, c))
      preds += Predicate.normalized(ColRef(0, c), ColRef(1, c), op)

    // Comparable distinct attribute pairs (a < b).
    for ((a, b) <- comparable.toSeq.sorted; op <- opsFor(a, b)) {
      preds += Predicate.normalized(ColRef(0, a), ColRef(0, b), op) // on t
      preds += Predicate.normalized(ColRef(1, a), ColRef(1, b), op) // on t'
      preds += Predicate.normalized(ColRef(0, a), ColRef(1, b), op) // t.A op t'.B
      preds += Predicate.normalized(ColRef(0, b), ColRef(1, a), op) // t.B op t'.A
    }

    new PredicateSpace(names, numeric, preds.result().distinct)
  }

  /** Distinct-value overlap profiling: returns the attribute pairs (a < b)
    * of equal type class whose distinct values, null and NaN aside, share
    * at least `threshold` of the smaller set's values.
    */
  def overlappingPairs(rel: EncodedRelation, threshold: Double): Set[(Int, Int)] = {
    // Equal codes are equal values: numeric codes rank one domain, string
    // codes come from one dictionary.
    val values = rel.cols.map { codes =>
      val set = new java.util.BitSet()
      codes.foreach(c => if (c != EncodedRelation.Null) set.set(c))
      set
    }
    val sizes = values.map(_.cardinality)
    val k = values.length
    (for {
      a <- 0 until k; b <- (a + 1) until k
      if rel.isNumeric(a) == rel.isNumeric(b)
      shared = { val s = values(a).clone().asInstanceOf[java.util.BitSet]; s.and(values(b)); s.cardinality }
      if shared.toDouble / math.max(1, math.min(sizes(a), sizes(b))) >= threshold
    } yield (a, b)).toSet
  }
}
