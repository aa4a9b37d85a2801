package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Fixtures, SparkSpec}
import scala.jdk.CollectionConverters._
import scala.util.Random

class EncodedRelationSpec extends SparkSpec {

  private lazy val df = Fixtures.runningExample(spark)
  private lazy val rel = EncodedRelation.fromDataFrame(df)

  test("row and column counts survive encoding") {
    assert(rel.n == 15)
    assert(rel.cols.length == 5)
    assert(rel.names.toSeq == Seq("name", "state", "zip", "income", "tax"))
    assert(rel.isNumeric.toSeq == Seq(false, false, false, true, true))
  }

  test("numeric comparisons reflect the raw data") {
    val inc = 3
    // t2 income 42 vs t5 income 26
    assert(rel.cmp(inc, 1, inc, 4) > 0)
    assert(rel.cmp(inc, 4, inc, 1) < 0)
    // t4 and t11 both 58
    assert(rel.cmp(inc, 3, inc, 10) == 0)
  }

  test("string equality via shared dictionary") {
    val name = 0
    // t1 and t5 are both Alice
    assert(rel.cmp(name, 0, name, 4) == 0)
    assert(rel.cmp(name, 0, name, 1) != 0)
  }

  test("cross-column string codes come from one dictionary") {
    // state NY vs zip "11803" must not collide: different strings, different codes
    assert(rel.cmp(1, 0, 2, 0) != 0)
  }

  test("predicate evaluation matches manual semantics") {
    val inc = 3; val tax = 4; val state = 1
    val pGt = Predicate.normalized(ColRef(0, inc), ColRef(1, inc), Op.Gt)
    assert(rel.eval(pGt, 1, 4))   // (t2, t5): 42 > 26
    assert(!rel.eval(pGt, 4, 1))  // (t5, t2)
    val pStEq = Predicate.normalized(ColRef(0, state), ColRef(1, state), Op.Eq)
    assert(rel.eval(pStEq, 0, 1))   // NY, NY
    assert(!rel.eval(pStEq, 0, 5))  // NY, WA
    val pIncTax = Predicate.normalized(ColRef(0, inc), ColRef(1, tax), Op.Gt)
    assert(rel.eval(pIncTax, 1, 4)) // 42 > 2.1
    assert(rel.eval(pIncTax, 4, 1)) // 26 > 4.7
    val pSame = Predicate.normalized(ColRef(0, inc), ColRef(0, tax), Op.Gt)
    assert(rel.eval(pSame, 2, 0))   // income 93 > tax 11.8 on t3 regardless of j
  }

  test("exactly one of predicate/complement holds for every pair") {
    val space = PredicateSpace.build(df, overlapThreshold = 0.0)
    for (i <- 0 until rel.n; j <- 0 until rel.n if i != j; p <- space.predicates)
      assert(rel.eval(p, i, j) != rel.eval(p.complement, i, j), s"$p on ($i,$j)")
  }

  test("mixed-type comparison is rejected") {
    intercept[IllegalArgumentException](rel.cmp(0, 0, 3, 0))
  }

  test("dates and booleans encode as numerics") {
    val schema = StructType(Seq(
      StructField("d", DateType), StructField("b", BooleanType),
      StructField("i", IntegerType)))
    val rows = Seq(
      Row(java.sql.Date.valueOf("2020-01-01"), true, 5),
      Row(java.sql.Date.valueOf("2020-01-02"), false, 7))
    val rel2 = EncodedRelation.fromDataFrame(spark.createDataFrame(rows.asJava, schema))
    assert(rel2.isNumeric.forall(identity))
    assert(rel2.cmp(0, 0, 0, 1) < 0)
    assert(rel2.cmp(1, 0, 1, 1) > 0)
    assert(rel2.cmp(2, 0, 2, 1) < 0)
  }

  test("nulls encode without breaking complement totality") {
    val schema = StructType(Seq(
      StructField("x", DoubleType), StructField("s", StringType)))
    val rows = Seq(Row(1.0, "a"), Row(null, null), Row(2.0, "a"))
    val df2 = spark.createDataFrame(rows.asJava, schema)
    val rel2 = EncodedRelation.fromDataFrame(df2)
    for (i <- 0 until 3; j <- 0 until 3 if i != j; op <- Op.all) {
      val p = Predicate.normalized(ColRef(0, 0), ColRef(1, 0), op)
      assert(rel2.eval(p, i, j) != rel2.eval(p.complement, i, j))
    }
  }

  test("Java 8 dates and instants encode as java.sql dates and timestamps do") {
    val schema = StructType(Seq(StructField("d", DateType), StructField("ts", TimestampType)))
    val rows = Seq(
      Row(java.sql.Date.valueOf("2020-01-02"), java.sql.Timestamp.valueOf("2020-01-01 00:00:00.002")),
      Row(java.sql.Date.valueOf("2020-01-01"), java.sql.Timestamp.valueOf("2020-01-01 00:00:00.001")),
      Row(null, null),
      Row(java.sql.Date.valueOf("2020-01-02"), java.sql.Timestamp.valueOf("2020-01-01 00:00:00.001")))
    def frame() = spark.createDataFrame(rows.asJava, schema)
    val legacy = EncodedRelation.fromDataFrame(frame())
    val key = "spark.sql.datetime.java8API.enabled"
    val before = spark.conf.getOption(key)
    spark.conf.set(key, "true")
    val java8 = try {
      val df8 = frame()
      val first = df8.collect().head
      assert(first.get(0).isInstanceOf[java.time.LocalDate] && first.get(1).isInstanceOf[java.time.Instant])
      EncodedRelation.fromDataFrame(df8)
    } finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    for (a <- 0 until 2; b <- 0 until 2; i <- rows.indices; j <- rows.indices)
      assert(Integer.signum(java8.cmp(a, i, b, j)) == Integer.signum(legacy.cmp(a, i, b, j)),
        s"($a, $i) vs ($b, $j)")
    assert(legacy.cmp(0, 0, 0, 1) > 0 && legacy.cmp(1, 1, 1, 3) == 0)
  }

  test("values a double cannot tell apart keep their order") {
    val big = 1L << 53
    val dec = new java.math.BigDecimal("1" + "0" * 37) // 38 digits
    val ts = java.sql.Timestamp.valueOf("2020-01-01 00:00:00")
    def ns(n: Int) = { val t = new java.sql.Timestamp(ts.getTime); t.setNanos(n); t }
    val schema = StructType(Seq(StructField("l", LongType), StructField("d", DecimalType(38, 0)),
      StructField("t", TimestampType), StructField("x", DoubleType)))
    val rows = Array(
      Row(big, dec, ns(0), big.toDouble),
      Row(big + 1, dec.add(java.math.BigDecimal.ONE), ns(1), 0.5),
      Row(big + 2, dec.add(java.math.BigDecimal.ONE), ns(2), Double.PositiveInfinity))
    val r = EncodedRelation.fromRows(schema, rows)
    assert(r.cmp(0, 0, 0, 1) < 0 && r.cmp(0, 1, 0, 2) < 0) // 2^53 < 2^53 + 1 < 2^53 + 2
    assert(r.cmp(1, 0, 1, 1) < 0 && r.cmp(1, 1, 1, 2) == 0) // 10^37 < 10^37 + 1
    assert(r.cmp(2, 0, 2, 1) < 0 && r.cmp(2, 1, 2, 2) < 0) // 0, 1 and 2 ns
    // Across columns: 2^53 as a long and as a double are one value; 2^53 + 1
    // lies above it and below 2^53 + 2; the infinite double tops them all.
    assert(r.cmp(0, 0, 3, 0) == 0 && r.cmp(0, 1, 3, 0) > 0 && r.cmp(0, 1, 0, 2) < 0)
    assert(r.cmp(1, 0, 3, 2) < 0 && r.cmp(0, 2, 3, 2) < 0 && r.cmp(3, 1, 2, 1) < 0)
    // Through Spark, which keeps timestamps to the microsecond.
    val micros = rows.map(row => Row(row.get(0), row.get(1), ns(row.getTimestamp(2).getNanos * 1000)))
    val s = EncodedRelation.fromDataFrame(
      spark.createDataFrame(micros.toSeq.asJava, StructType(schema.fields.take(3))))
    assert(s.cmp(0, 0, 0, 1) < 0 && s.cmp(1, 0, 1, 1) < 0 && s.cmp(2, 0, 2, 1) < 0 && s.cmp(2, 1, 2, 2) < 0)
  }

  test("cmp signs match Double.compare on raw numeric values, and string equality, after select too") {
    val specials: Seq[Any] = Seq(null, Double.NaN, 0.0, -0.0, Double.PositiveInfinity,
      Double.NegativeInfinity, Double.MinValue, Double.MaxValue, Double.MinPositiveValue)
    /** `agree(cmp, x, y)` for every pair of cells of `rel`, same column and
      * across two, against the raw columns `raw`; again after `select` of a
      * random ascending subset of the rows. */
    def check(raw: Seq[Seq[Any]], rel: EncodedRelation, rnd: Random)(agree: (Int, Any, Any) => Boolean): Unit = {
      val ids = raw.head.indices.filter(_ => rnd.nextBoolean()).toArray
      for ((r, rows) <- Seq(rel -> raw.head.indices, rel.select(ids) -> ids.toIndexedSeq);
           a <- raw.indices; b <- raw.indices; i <- rows.indices; j <- rows.indices) {
        val (x, y) = (raw(a)(rows(i)), raw(b)(rows(j)))
        assert(agree(r.cmp(a, i, b, j), x, y), s"$x vs $y")
      }
    }
    for (seed <- 0 until 20) {
      val rnd = new Random(seed)
      val n = 10 + rnd.nextInt(20)
      def num(): Any = rnd.nextInt(4) match {
        case 0 => specials(rnd.nextInt(specials.size))
        case 1 => rnd.nextInt(5).toDouble - 2 // duplicates
        case _ => rnd.nextGaussian() * math.pow(10, rnd.nextInt(20) - 10)
      }
      val nums = Seq.fill(3)(Seq.fill(n)(num()))
      val numRows = (0 until n).map(i => Row(nums.map(_(i)): _*))
      val numSchema = StructType((0 until 3).map(c => StructField(s"x$c", DoubleType)))
      val numRel = EncodedRelation.fromDataFrame(spark.createDataFrame(numRows.asJava, numSchema))
      def asDouble(v: Any): Double = if (v == null) Double.NaN else v.asInstanceOf[Double]
      check(nums, numRel, rnd) { (c, x, y) =>
        Integer.signum(c) == Integer.signum(java.lang.Double.compare(asDouble(x), asDouble(y)))
      }

      val strs = Seq.fill(2)(Seq.fill(n)(if (rnd.nextInt(5) == 0) null else s"v${rnd.nextInt(6)}"))
      val strRows = (0 until n).map(i => Row(strs.map(_(i)): _*))
      val strSchema = StructType((0 until 2).map(c => StructField(s"s$c", StringType)))
      val strRel = EncodedRelation.fromDataFrame(spark.createDataFrame(strRows.asJava, strSchema))
      check(strs, strRel, rnd)((c, x, y) => (c == 0) == (x == y)) // null = null
    }
  }
}
