package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{Fixtures, SparkSpec}
import scala.jdk.CollectionConverters._

class PredicateSpaceSpec extends SparkSpec {

  private lazy val df = Fixtures.runningExample(spark)

  test("same-column cross-tuple predicates always generated") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.3)
    // name/state/zip: 2 predicates each; income/tax: 6 each.
    for (c <- Seq("name", "state", "zip")) {
      val i = space.colNames.indexOf(c)
      val preds = space.predicates.filter(p => p.a == ColRef(0, i) && p.b == ColRef(1, i))
      assert(preds.map(_.op).toSet == Set(Op.Eq, Op.Neq), c)
    }
    for (c <- Seq("income", "tax")) {
      val i = space.colNames.indexOf(c)
      val preds = space.predicates.filter(p => p.a == ColRef(0, i) && p.b == ColRef(1, i))
      assert(preds.map(_.op).toSet == Op.all.toSet, c)
    }
  }

  test("income/tax share no values: cross predicates pruned at 30%") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.3)
    val inc = space.colNames.indexOf("income")
    val tax = space.colNames.indexOf("tax")
    assert(!space.predicates.exists(p =>
      Set(p.a.col, p.b.col) == Set(inc, tax)))
  }

  test("threshold 0 generates the Table 3 cross predicates") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    val inc = space.colNames.indexOf("income")
    val tax = space.colNames.indexOf("tax")
    // t.Income > t'.Tax from Table 3 of the paper.
    val p = Predicate.normalized(ColRef(0, inc), ColRef(1, tax), Op.Gt)
    assert(space.indexOf.contains(p))
    // Same-tuple variant t.Income > t.Tax as well.
    assert(space.indexOf.contains(Predicate.normalized(ColRef(0, inc), ColRef(0, tax), Op.Gt)))
  }

  test("numeric and string columns never compared") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    space.predicates.foreach { p =>
      assert(space.colIsNumeric(p.a.col) == space.colIsNumeric(p.b.col), p)
    }
  }

  test("string pairs use only equality operators") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    space.predicates.foreach { p =>
      if (!space.colIsNumeric(p.a.col)) assert(!p.op.isOrder, p)
    }
  }

  test("complement of every predicate is in the space, groups are op-families") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    space.predicates.indices.foreach { i =>
      val ci = space.complementOf(i)
      assert(space.predicates(ci) == space.predicates(i).complement)
      assert(space.complementOf(ci) == i)
      assert(space.groupOf(ci) == space.groupOf(i)) // complements share the group
    }
    space.groupMembers.foreach { members =>
      val keys = members.map(space.predicates(_).groupKey).distinct
      assert(keys.size == 1)
    }
  }

  test("a hand-built space without a swap image is rejected") {
    val p = Predicate.normalized(ColRef(0, 0), ColRef(0, 1), Op.Lt) // t.a < t.b; t'.a < t'.b missing
    val e = intercept[IllegalArgumentException](
      new PredicateSpace(Vector("a", "b"), Vector(true, true), Vector(p, p.complement)))
    assert(e.getMessage.contains("t.a < t.b") && e.getMessage.contains("t'.a < t'.b"), e.getMessage)
  }

  test("predicates are unique and normalized") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    assert(space.predicates.distinct.size == space.size)
    space.predicates.foreach { p =>
      assert(ColRef.ordering.lt(p.a, p.b), s"not normalized: $p")
    }
  }

  test("overlap profiling agrees with the DuckDB oracle") {
    // Thresholds per frame accept at least one same-kind pair and reject one.
    for ((frame, thresholds) <- Seq(df -> Seq(0.0, 0.3), crafted -> Seq(0.3, 0.6, 0.61));
         t <- thresholds) {
      val names = frame.columns
      val pairs = PredicateSpace.overlappingPairs(EncodedRelation.fromDataFrame(frame), t)
      val sparkDf = spark.createDataFrame(pairs.toSeq.map { case (a, b) => (names(a), names(b)) })
        .toDF("a", "b")
      repro.Oracle.assertEquivalent(sparkDf, duckComparable(frame, t), "r" -> frame)
    }
  }

  test("overlappingPairs matches a hand computation on a crafted frame") {
    // a: {1..5}; b: {1,2,3,10,11}; c: {100..104}; i: {1..5} as integers, so
    // overlap(a,b) = overlap(b,i) = 3/5 and overlap(a,i) = 1. The null-padded
    // pairs n1/n2 and s1/s2 share only nulls, which must not count.
    assert(comparable(crafted, 0.3) == Set(("a", "b"), ("a", "i"), ("b", "i")))
    assert(comparable(crafted, 0.6) == Set(("a", "b"), ("a", "i"), ("b", "i"))) // inclusive
    assert(comparable(crafted, 0.61) == Set(("a", "i")))

    // Dates encode as epoch days: d1 and d2 share 2 of 5 days. The boolean
    // (0/1) and integer columns share no value with them or each other.
    val days = (1 to 8).map(d => java.sql.Date.valueOf(f"2020-01-$d%02d"))
    val dated = frame(
      Seq("d1" -> DateType, "d2" -> DateType, "flag" -> BooleanType, "k" -> IntegerType),
      (0 until 5).map(i => Row(days(i), days(i + 3), i % 2 == 0, 10 + i)))
    assert(comparable(dated, 0.3) == Set(("d1", "d2")))
    assert(comparable(dated, 0.41) == Set.empty)

    // q1/q2 share only NaN cells and z1/z2 only -0.0 against 0.0, so neither
    // pair is comparable at any threshold > 0; z2/z3 share 0.0 (1 of 3).
    val signed = frame(
      Seq("q1" -> DoubleType, "q2" -> DoubleType, "z1" -> DoubleType, "z2" -> DoubleType,
        "z3" -> DoubleType),
      Seq(Row(Double.NaN, Double.NaN, -0.0, 0.0, 0.0), Row(1.0, 3.0, 5.0, 7.0, 9.0),
        Row(2.0, 4.0, 6.0, 8.0, 10.0)))
    assert(comparable(signed, Double.MinPositiveValue) == Set(("z2", "z3")))
  }

  private lazy val crafted = frame(
    Seq("a" -> DoubleType, "b" -> DoubleType, "c" -> DoubleType, "i" -> IntegerType,
      "n1" -> DoubleType, "n2" -> DoubleType, "s1" -> StringType, "s2" -> StringType),
    (0 until 5).map { i =>
      def pad(v: Any): Any = if (i < 3) null else v
      Row((i + 1).toDouble, Seq(1.0, 2.0, 3.0, 10.0, 11.0)(i), (100 + i).toDouble, i + 1,
        pad(4.0 + i), pad(17.0 + i), pad(s"p$i"), pad(s"r$i"))
    })

  private def frame(cols: Seq[(String, DataType)], rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava,
      StructType(cols.map { case (n, t) => StructField(n, t) }))

  /** Comparable column pairs of the space `build` makes, by name in schema order. */
  private def comparable(frame: DataFrame, threshold: Double): Set[(String, String)] = {
    val space = PredicateSpace.build(frame, threshold)
    space.predicates.collect {
      case p if p.a.col != p.b.col =>
        (space.colNames(p.a.col min p.b.col), space.colNames(p.a.col max p.b.col))
    }.toSet
  }

  /** The overlap rule as a DuckDB query over table `r` (all VARCHAR): numeric
    * values go through DOUBLE so that 1 and 1.0 match, nulls never count.
    */
  private def duckComparable(frame: DataFrame, threshold: Double): String = {
    val fields = frame.schema.fields.toIndexedSeq
    val numeric = fields.map(f => EncodedRelation.isNumericType(f.dataType))
    val cols = fields.indices.map(i => s"($i, '${fields(i).name}', ${numeric(i)})")
    val vals = fields.indices.map { i =>
      val c = fields(i).name
      val v = if (numeric(i)) s"CAST(CAST($c AS DOUBLE) AS VARCHAR)" else c
      s"SELECT DISTINCT $i AS i, $v AS v FROM r WHERE $c IS NOT NULL"
    }
    s"""WITH cols(i, name, num) AS (VALUES ${cols.mkString(", ")}),
       |  vals AS (${vals.mkString(" UNION ALL ")}),
       |  n AS (SELECT cols.i, count(vals.v) AS n FROM cols LEFT JOIN vals ON vals.i = cols.i
       |        GROUP BY cols.i)
       |SELECT x.name AS a, y.name AS b
       |FROM cols x JOIN cols y ON x.num = y.num AND x.i < y.i
       |  JOIN n nx ON nx.i = x.i JOIN n ny ON ny.i = y.i
       |WHERE CAST((SELECT count(*) FROM vals p JOIN vals q ON p.v = q.v
       |            WHERE p.i = x.i AND q.i = y.i) AS DOUBLE)
       |      / greatest(1, least(nx.n, ny.n)) >= CAST($threshold AS DOUBLE)""".stripMargin
  }
}
