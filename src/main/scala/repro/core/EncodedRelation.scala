package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types._

/** A column of an [[EncodedRelation]]: numeric values as doubles or string
  * values as dictionary codes (one global dictionary per relation, so string
  * equality across different columns compares codes directly).
  */
sealed trait EncodedCol extends Serializable {
  def size: Int
}
final case class NumCol(values: Array[Double]) extends EncodedCol {
  def size: Int = values.length
}
final case class StrCol(codes: Array[Int]) extends EncodedCol {
  def size: Int = codes.length
}

/** A relation collected to the driver and encoded columnar for fast predicate
  * evaluation. This is broadcast to executors by the evidence builders; the
  * pair-quadratic scan itself stays distributed. The miner collects all of D
  * once and [[select]]s its sample — the paper's enumeration input is likewise
  * an in-memory structure orders of magnitude smaller than the pair space.
  *
  * Null handling: numeric nulls encode as NaN (compared with
  * `java.lang.Double.compare`, which totally orders NaN above all values, so
  * every pair still satisfies exactly one of each predicate/complement pair);
  * string nulls encode as code -1, a distinguished dictionary value. So null
  * = null: NaN equals NaN under `Double.compare` and -1 equals -1, for the
  * same column and across two columns alike, and both evidence builders
  * agree on it (`EvidenceSpec` pins it).
  */
final case class EncodedRelation(
    n: Int,
    names: Array[String],
    isNumeric: Array[Boolean],
    cols: Array[EncodedCol],
) extends Serializable {

  /** Three-way comparison between value (colA, row i) and (colB, row j).
    * Only meaningful for columns of the same kind; string codes compare by
    * dictionary id, which is consistent though arbitrary (string columns are
    * only ever used with =/!=).
    */
  def cmp(colA: Int, i: Int, colB: Int, j: Int): Int =
    (cols(colA), cols(colB)) match {
      case (NumCol(x), NumCol(y)) => java.lang.Double.compare(x(i), y(j))
      case (StrCol(x), StrCol(y)) => java.lang.Integer.compare(x(i), y(j))
      case _ =>
        throw new IllegalArgumentException(
          s"cannot compare ${names(colA)} (numeric=${isNumeric(colA)}) " +
            s"with ${names(colB)} (numeric=${isNumeric(colB)})")
    }

  /** The rows `ids` (distinct, ascending) over the same dictionary; all n
    * ids return this relation itself. */
  def select(ids: Array[Int]): EncodedRelation =
    if (ids.length == n) this
    else copy(n = ids.length, cols = cols.map {
      case NumCol(xs) => NumCol(ids.map(xs))
      case StrCol(cs) => StrCol(ids.map(cs))
    })

  /** Evaluate a predicate on the ordered tuple pair (i, j). */
  def eval(p: Predicate, i: Int, j: Int): Boolean = {
    val ri = if (p.a.side == 0) i else j
    val rj = if (p.b.side == 0) i else j
    p.op.evalCmp(cmp(p.a.col, ri, p.b.col, rj))
  }
}

object EncodedRelation {

  /** True for Spark types we encode as numeric (doubles). */
  def isNumericType(dt: DataType): Boolean = dt match {
    case _: NumericType | BooleanType | DateType | TimestampType => true
    case _                                                       => false
  }

  /** Collect and encode a DataFrame. All numeric types (incl. dates as epoch
    * days and booleans as 0/1) become doubles; everything else becomes a
    * dictionary-coded string.
    */
  def fromDataFrame(df: DataFrame): EncodedRelation = {
    val schema = df.schema
    val numeric = schema.fields.map(f => isNumericType(f.dataType))
    val rows = df.collect()
    val n = rows.length
    val dict = new scala.collection.mutable.HashMap[String, Int]()
    val cols: Array[EncodedCol] = schema.fields.zipWithIndex.map { case (f, c) =>
      if (numeric(c)) {
        val arr = new Array[Double](n)
        var i = 0
        while (i < n) {
          val v = rows(i).get(c)
          arr(i) = v match {
            case null                  => Double.NaN
            case b: java.lang.Boolean  => if (b) 1.0 else 0.0
            case d: java.sql.Date      => d.toLocalDate.toEpochDay.toDouble
            case t: java.sql.Timestamp => t.getTime.toDouble
            case x: java.lang.Number   => x.doubleValue()
            case other =>
              throw new IllegalArgumentException(
                s"unexpected numeric value $other in column ${f.name}")
          }
          i += 1
        }
        NumCol(arr)
      } else {
        val arr = new Array[Int](n)
        var i = 0
        while (i < n) {
          val v = rows(i).get(c)
          arr(i) =
            if (v == null) -1
            else dict.getOrElseUpdate(v.toString, dict.size)
          i += 1
        }
        StrCol(arr)
      }
    }
    EncodedRelation(n, schema.fieldNames, numeric, cols)
  }
}
