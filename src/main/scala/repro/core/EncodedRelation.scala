package repro.core

import java.math.{BigDecimal => JBigDecimal}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

/** A relation collected to the driver and encoded columnar, one `Int` code
  * per cell, for fast predicate evaluation. The miner collects all of D once
  * and [[select]]s its sample — the paper's enumeration input is likewise
  * an in-memory structure orders of magnitude smaller than the pair space.
  * The fast evidence builder broadcasts a row step built from these columns;
  * only the naive builder's row step captures the relation itself.
  *
  * Codes: a numeric cell is the rank of its value among the distinct non-NaN
  * values of all numeric columns, in `java.lang.Double.compare` order (so
  * −0.0 < 0.0) with the values no double holds (longs beyond 2^53, long
  * decimals, sub-millisecond timestamps) placed by their exact value, so the
  * codes of any two numeric columns compare as their values do. A string
  * cell is its code in one global dictionary, so string equality across
  * columns compares codes directly. A null or NaN cell of
  * either kind is the one code [[EncodedRelation.Null]], which equals itself
  * and sorts above every value, as NaN does under `Double.compare`. So every
  * pair still satisfies exactly one of each predicate/complement pair, and
  * null = null, for the same column and across two columns alike; both
  * evidence builders agree on it (`EvidenceSpec` pins it).
  */
final case class EncodedRelation(
    n: Int,
    names: Array[String],
    isNumeric: Array[Boolean],
    cols: Array[Array[Int]],
) extends Serializable {

  /** Three-way comparison between value (colA, row i) and (colB, row j).
    * Only meaningful for columns of the same kind; string codes compare by
    * dictionary id, which is consistent though arbitrary (string columns are
    * only ever used with =/!=).
    */
  def cmp(colA: Int, i: Int, colB: Int, j: Int): Int = {
    if (isNumeric(colA) != isNumeric(colB))
      throw new IllegalArgumentException(
        s"cannot compare ${names(colA)} (numeric=${isNumeric(colA)}) " +
          s"with ${names(colB)} (numeric=${isNumeric(colB)})")
    java.lang.Integer.compare(cols(colA)(i), cols(colB)(j))
  }

  /** The rows `ids` (distinct, ascending) over the same codes; all n ids
    * return this relation itself. */
  def select(ids: Array[Int]): EncodedRelation =
    if (ids.length == n) this
    else copy(n = ids.length, cols = cols.map(codes => ids.map(codes(_))))

  /** Evaluate a predicate on the ordered tuple pair (i, j). */
  def eval(p: Predicate, i: Int, j: Int): Boolean = {
    val ri = if (p.a.side == 0) i else j
    val rj = if (p.b.side == 0) i else j
    p.op.evalCmp(cmp(p.a.col, ri, p.b.col, rj))
  }
}

object EncodedRelation {

  /** The code of a null or NaN cell: it equals itself and sorts last. */
  val Null: Int = Int.MaxValue

  /** True for Spark types we encode as numeric (ranked by value). */
  def isNumericType(dt: DataType): Boolean = dt match {
    case _: NumericType | BooleanType | DateType | TimestampType => true
    case _                                                       => false
  }

  /** Collect and encode a DataFrame. All numeric types (incl. dates as epoch
    * days, timestamps as epoch milliseconds and booleans as 0/1) are ranked
    * by value; everything else becomes a dictionary-coded string.
    */
  def fromDataFrame(df: DataFrame): EncodedRelation = fromRows(df.schema, df.collect())

  /** Encode collected rows of `schema`. A numeric cell ranks as its double
    * when a double holds its value exactly, as every value of the workloads
    * does; a long beyond 2^53, a decimal past a double's digits and a
    * timestamp with sub-millisecond nanos rank by their exact value, between
    * the doubles, so no two distinct values share a code.
    */
  def fromRows(schema: StructType, rows: Array[Row]): EncodedRelation = {
    val numeric = schema.fields.map(f => isNumericType(f.dataType))
    // values(c)(r) is the cell's double, NaN for null and for a cell that a
    // double cannot hold; such a cell's exact value is in rounded(c)(r).
    val rounded = Array.fill[Array[JBigDecimal]](schema.length)(null)
    val values = Array.tabulate(schema.length) { c =>
      if (!numeric(c)) Array.emptyDoubleArray
      else Array.tabulate(rows.length) { r =>
        val v = rows(r).get(c)
        exactOf(v) match {
          case null => asDouble(v, schema.fields(c).name)
          case x if holds(x.doubleValue, x) => x.doubleValue
          case x =>
            if (rounded(c) == null) rounded(c) = new Array[JBigDecimal](rows.length)
            rounded(c)(r) = x
            Double.NaN
        }
      }
    }
    // The distinct non-NaN doubles, domain(0 until d), sorted and
    // deduplicated in `Double.compare` order, so −0.0 and 0.0 stay two values.
    val domain = values.flatten.filterNot(_.isNaN)
    java.util.Arrays.sort(domain)
    var d = 0
    for (x <- domain if d == 0 || java.lang.Double.compare(domain(d - 1), x) != 0) {
      domain(d) = x
      d += 1
    }
    // The distinct exact values no double holds, merged into that order.
    val byValue = java.util.Comparator.naturalOrder[JBigDecimal]()
    val exact = {
      val xs = rounded.filter(_ != null).flatten.filter(_ != null)
      java.util.Arrays.sort(xs, byValue)
      xs.indices.collect { case k if k == 0 || xs(k - 1).compareTo(xs(k)) != 0 => xs(k) }.toArray
    }
    val domainCode = new Array[Int](d)
    val exactCode = new Array[Int](exact.length)
    var (i, j) = (0, 0)
    while (i < d || j < exact.length) {
      if (j == exact.length || (i < d && below(domain(i), exact(j)))) { domainCode(i) = i + j; i += 1 }
      else { exactCode(j) = i + j; j += 1 }
    }
    val dict = new scala.collection.mutable.HashMap[String, Int]()
    val cols = Array.tabulate(schema.length) { c =>
      if (numeric(c)) Array.tabulate(rows.length) { r =>
        val x = values(c)(r)
        if (rounded(c) != null && rounded(c)(r) != null)
          exactCode(java.util.Arrays.binarySearch(exact, rounded(c)(r), byValue))
        else if (x.isNaN) Null
        else domainCode(java.util.Arrays.binarySearch(domain, 0, d, x))
      }
      else rows.map(r => r.get(c) match {
        case null => Null
        case v    => dict.getOrElseUpdate(v.toString, dict.size)
      })
    }
    EncodedRelation(rows.length, schema.fieldNames, numeric, cols)
  }

  /** True when the double `d` is exactly `x`. */
  private def holds(d: Double, x: JBigDecimal): Boolean =
    !d.isInfinite && new JBigDecimal(d).compareTo(x) == 0

  /** Double `p` sorts below `x`, a value no double holds. */
  private def below(p: Double, x: JBigDecimal): Boolean =
    if (p.isInfinite) p < 0 else new JBigDecimal(p).compareTo(x) < 0

  /** The exact value of a cell that [[asDouble]] may round, else null. */
  private def exactOf(v: Any): JBigDecimal = v match {
    case x: java.lang.Long if math.abs(x) > (1L << 53) => JBigDecimal.valueOf(x)
    case x: JBigDecimal => x
    case t: java.sql.Timestamp if t.getNanos % 1000000 != 0 =>
      JBigDecimal.valueOf(t.getTime).add(JBigDecimal.valueOf(t.getNanos % 1000000, 6))
    case t: java.time.Instant if t.getNano % 1000000 != 0 =>
      JBigDecimal.valueOf(t.getEpochSecond, -3).add(JBigDecimal.valueOf(t.getNano, 6))
    case _ => null
  }

  private def asDouble(v: Any, col: String): Double = v match {
    case null                   => Double.NaN
    case b: java.lang.Boolean   => if (b) 1.0 else 0.0
    case d: java.sql.Date       => d.toLocalDate.toEpochDay.toDouble
    case d: java.time.LocalDate => d.toEpochDay.toDouble
    case t: java.sql.Timestamp  => t.getTime.toDouble
    case t: java.time.Instant   => t.toEpochMilli.toDouble
    case x: java.lang.Number    => x.doubleValue()
    case other =>
      throw new IllegalArgumentException(s"unexpected numeric value $other in column $col")
  }
}
