package repro.core

import org.apache.spark.sql.DataFrame
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
  * −0.0 < 0.0), so the codes of any two numeric columns compare as their
  * values do. A string cell is its code in one global dictionary, so string
  * equality across columns compares codes directly. A null or NaN cell of
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

  /** True for Spark types we encode as numeric (ranked as doubles). */
  def isNumericType(dt: DataType): Boolean = dt match {
    case _: NumericType | BooleanType | DateType | TimestampType => true
    case _                                                       => false
  }

  /** Collect and encode a DataFrame. All numeric types (incl. dates as epoch
    * days, timestamps as epoch milliseconds and booleans as 0/1) are ranked
    * as doubles; everything else becomes a dictionary-coded string.
    */
  def fromDataFrame(df: DataFrame): EncodedRelation = {
    val schema = df.schema
    val numeric = schema.fields.map(f => isNumericType(f.dataType))
    val rows = df.collect()
    val values = Array.tabulate(schema.length) { c =>
      if (numeric(c)) rows.map(r => asDouble(r.get(c), schema.fields(c).name))
      else Array.emptyDoubleArray
    }
    // The distinct non-NaN values of all numeric columns, domain(0 until d),
    // sorted and deduplicated in `Double.compare` order, so −0.0 and 0.0
    // stay two values.
    val domain = values.flatten.filterNot(_.isNaN)
    java.util.Arrays.sort(domain)
    var d = 0
    for (x <- domain if d == 0 || java.lang.Double.compare(domain(d - 1), x) != 0) {
      domain(d) = x
      d += 1
    }
    val dict = new scala.collection.mutable.HashMap[String, Int]()
    val cols = Array.tabulate(schema.length) { c =>
      if (numeric(c))
        values(c).map(x => if (x.isNaN) Null else java.util.Arrays.binarySearch(domain, 0, d, x))
      else rows.map(r => r.get(c) match {
        case null => Null
        case v    => dict.getOrElseUpdate(v.toString, dict.size)
      })
    }
    EncodedRelation(rows.length, schema.fieldNames, numeric, cols)
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
