package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{lit, monotonically_increasing_id}
import org.apache.spark.sql.types._
import repro.{Fixtures, Oracle, SparkSpec}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Evidence-set construction validated against the paper's running example
  * (Table 1, Examples 1.2 and 3.1) and the DuckDB oracle.
  */
class EvidenceSpec extends SparkSpec {

  private lazy val df = Fixtures.runningExample(spark)
  private lazy val space = PredicateSpace.build(df, overlapThreshold = 0.0)
  private lazy val rel = EncodedRelation.fromDataFrame(df)
  private lazy val ev = EvidenceBuilder.build(spark, rel, space, needVios = true)

  private def pred(ca: String, sa: Int, op: Op, cb: String, sb: Int): Int = {
    val a = space.colNames.indexOf(ca); val b = space.colNames.indexOf(cb)
    space.indexOf(Predicate.normalized(ColRef(sa, a), ColRef(sb, b), op))
  }

  /** Hitting-set indices (complement predicates) of a DC given as preds. */
  private def hs(preds: (String, Op, String)*): Set[Int] =
    preds.map { case (ca, op, cb) => pred(ca, 0, op.complement, cb, 1) }.toSet

  test("bag semantics: class counts sum to |D|(|D|-1) = 210") {
    assert(ev.totalPairs == 210)
    assert(ev.counts.sum == 210)
    assert(ev.nTuples == 15)
  }

  test("masks are distinct") {
    val keys = ev.masks.map(_.toSeq).toSeq
    assert(keys.distinct.size == keys.size)
  }

  test("Example 3.1: Sat(t2, t5) membership") {
    // Recompute the single-pair mask through the relation encoding and check
    // the exact predicates the example lists.
    def sat(i: Int, j: Int, p: Int): Boolean = rel.eval(space.predicates(p), i, j)
    val t2 = 1; val t5 = 4
    assert(sat(t2, t5, pred("name", 0, Op.Neq, "name", 1)))
    assert(sat(t2, t5, pred("income", 0, Op.Gt, "income", 1)))
    assert(sat(t2, t5, pred("income", 0, Op.Geq, "income", 1)))
    assert(sat(t2, t5, pred("income", 0, Op.Gt, "tax", 1)))
    assert(sat(t2, t5, pred("income", 0, Op.Geq, "tax", 1)))
    assert(!sat(t2, t5, pred("income", 0, Op.Lt, "income", 1)))
    // Reversed pair: order flips on income/income, not on name.
    assert(sat(t5, t2, pred("name", 0, Op.Neq, "name", 1)))
    assert(sat(t5, t2, pred("income", 0, Op.Lt, "income", 1)))
    assert(sat(t5, t2, pred("income", 0, Op.Leq, "income", 1)))
    assert(!sat(t5, t2, pred("income", 0, Op.Gt, "income", 1)))
    // 26 > 4.7: the income/tax cross predicate holds in this direction too.
    assert(sat(t5, t2, pred("income", 0, Op.Gt, "tax", 1)))
  }

  test("Example 1.2: phi1 is violated by exactly 2 of 210 pairs") {
    val hs1 = hs(("state", Op.Eq, "state"), ("income", Op.Gt, "income"),
      ("tax", Op.Leq, "tax"))
    assert(ev.violationsOf(hs1) == 2)
  }

  test("Example 1.2: phi2 is violated by exactly 16 of 210 pairs") {
    val hs2 = hs(("zip", Op.Eq, "zip"), ("state", Op.Neq, "state"))
    assert(ev.violationsOf(hs2) == 16)
  }

  test("f1 matches the example percentages") {
    val f1 = new F1(ev)
    val g1 = f1.g(ev.violatingClasses(hs(("state", Op.Eq, "state"),
      ("income", Op.Gt, "income"), ("tax", Op.Leq, "tax"))).iterator)
    assert(math.abs(g1 - 2.0 / 210) < 1e-12) // 0.95%
    val g2 = f1.g(ev.violatingClasses(hs(("zip", Op.Eq, "zip"),
      ("state", Op.Neq, "state"))).iterator)
    assert(math.abs(g2 - 16.0 / 210) < 1e-12) // 7.62%
  }

  test("f2: phi1 involves tuples t6,t7,t14,t15 -> g2 = 4/15") {
    val f2 = new F2(ev)
    val g = f2.g(ev.violatingClasses(hs(("state", Op.Eq, "state"),
      ("income", Op.Gt, "income"), ("tax", Op.Leq, "tax"))).iterator)
    assert(math.abs(g - 4.0 / 15) < 1e-12)
  }

  test("greedy f3 matches the example repairs: 2/15 for phi1, 1/15 for phi2") {
    val f3 = new GreedyF3(ev)
    val g1 = f3.g(ev.violatingClasses(hs(("state", Op.Eq, "state"),
      ("income", Op.Gt, "income"), ("tax", Op.Leq, "tax"))).iterator)
    assert(math.abs(g1 - 2.0 / 15) < 1e-12) // 13.3%
    val g2 = f3.g(ev.violatingClasses(hs(("zip", Op.Eq, "zip"),
      ("state", Op.Neq, "state"))).iterator)
    assert(math.abs(g2 - 1.0 / 15) < 1e-12) // 6.67%: remove t15 only
  }

  test("vios: per-class tuple counts sum to twice the pair count") {
    val vios = ev.vios.get
    ev.masks.indices.foreach { c =>
      val s = vios(c).map(Evidence.cntOf).sum
      assert(s == 2 * ev.counts(c), s"class $c")
    }
  }

  test("mirror identity: every tuple's vios counts sum to 2(n-1), the bound of GreedyF3's histogram") {
    val df2 = Fixtures.smallMixed(spark, n = 35, seed = 9L)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.0)
    val ev2 = EvidenceBuilder.build(spark, EncodedRelation.fromDataFrame(df2), space2,
      needVios = true)
    for (e <- Seq(ev, ev2)) {
      val perTid = new Array[Long](e.nTuples)
      e.vios.get.foreach(_.foreach(p => perTid(Evidence.tidOf(p)) += Evidence.cntOf(p)))
      perTid.indices.foreach { t =>
        assert(perTid(t) == 2L * (e.nTuples - 1), s"n=${e.nTuples}, tuple $t")
      }
    }
  }

  /** Classes as (mask, count, vios entries sorted by tid). */
  private def canon(e: Evidence): Set[(Seq[Long], Long, Seq[Long])] =
    e.masks.indices.map(c => (e.masks(c).toSeq, e.counts(c), e.viosOf(c).sorted.toSeq)).toSet

  test("checksum ignores class order and vios but sees every mask bit and count") {
    val perm = ev.masks.indices.reverse
    val permuted = Evidence(ev.nPreds, perm.map(ev.masks).toArray, perm.map(ev.counts).toArray,
      ev.nTuples, None)
    assert(permuted.checksum == ev.checksum)
    val flipped = ev.masks.map(_.clone())
    flipped(0)(0) ^= 1L << 3
    assert(ev.copy(masks = flipped).checksum != ev.checksum, "one mask bit flipped")
    val moved = ev.counts.clone()
    moved(0) -= 1; moved(1) += 1
    assert(ev.copy(counts = moved).checksum != ev.checksum, "one pair moved between classes")
  }

  test("naive and fast builders produce identical evidence") {
    val naive = NaiveEvidenceBuilder.build(spark, rel, space, needVios = true)
    assert(canon(naive) == canon(ev))
  }

  test("builders agree on a random mixed relation too") {
    val df2 = Fixtures.smallMixed(spark, n = 35, seed = 9L)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.0)
    val rel2 = EncodedRelation.fromDataFrame(df2)
    // Keeps the per-word split of a group's op bits covered.
    assert(space2.groupMembers.exists(m => m.min < 64 && m.max >= 64),
      "no comparison group straddles predicates 63/64")
    val fast = EvidenceBuilder.build(spark, rel2, space2, needVios = true)
    val naive = NaiveEvidenceBuilder.build(spark, rel2, space2, needVios = true)
    assert(canon(fast) == canon(naive))
    assert(fast.counts.sum == 35L * 34)
  }

  /** Nulls, NaN, signed zeros, a constant column and all-null columns. */
  private val edgeSchema = StructType(Seq(
    StructField("x", DoubleType), StructField("z", DoubleType), StructField("k", DoubleType),
    StructField("nx", DoubleType), StructField("s", StringType), StructField("ns", StringType)))
  private val edgeRows = Seq(
    Row(1.0, -0.0, 5.0, null, "a", null),
    Row(null, 0.0, 5.0, null, null, null),
    Row(Double.NaN, 0.0, 5.0, null, "a", null),
    Row(2.0, -0.0, 5.0, null, "b", null),
    Row(null, 1.0, 5.0, null, null, null),
    Row(-0.0, 0.0, 5.0, null, "b", null),
    Row(0.0, -1.0, 5.0, null, "a", null))

  test("builders agree on nulls, NaN, signed zeros, constant and all-null columns, and 0-2 rows") {
    val schema = edgeSchema
    val rows = edgeRows
    def frame(k: Int) = spark.createDataFrame(rows.take(k).asJava, schema)
    // Threshold 0: every same-kind column pair is comparable, the all-null ones too.
    val space2 = PredicateSpace.build(frame(rows.size), overlapThreshold = 0.0)
    for (k <- Seq(rows.size, 0, 1, 2)) {
      val rel2 = EncodedRelation.fromDataFrame(frame(k))
      if (k == rows.size) {
        // z holds -0.0, 0.0, 1.0 and -1.0; row 0 is -0.0 and row 1 is 0.0.
        assert(rel2.cmp(1, 0, 1, 1) < 0 && rel2.cols(1).distinct.length == 4, "signed zeros lost")
      }
      val fast = EvidenceBuilder.build(spark, rel2, space2, needVios = true)
      val naive = NaiveEvidenceBuilder.build(spark, rel2, space2, needVios = true)
      assert(canon(fast) == canon(naive), s"n=$k")
      assert(fast.counts.sum == k.toLong * (k - 1), s"n=$k")
      assert(fast.nTuples == k)
    }
  }

  test("one Spark job builds the evidence, with or without vios") {
    val seen = jobGroupsOf {
      for (needVios <- Seq(false, true)) {
        spark.sparkContext.setJobGroup(s"evidence-$needVios", "")
        EvidenceBuilder.build(spark, rel, space, needVios)
      }
    }
    for (needVios <- Seq(false, true))
      assert(seen.count(_ == s"evidence-$needVios") == 1, s"needVios=$needVios: $seen")
  }

  test("the evidence job is one stage of max(1, min(n, parallelism)) tasks that write no shuffle") {
    val jobs = jobsOf {
      spark.sparkContext.setJobGroup("evidence", "")
      EvidenceBuilder.build(spark, rel, space, needVios = true)
    }
    val Seq(job) = jobs.filter(_.group == "evidence"): @unchecked
    assert(job.stages.size == 1, s"stages: ${job.stages.map(_.name)}")
    val tasks = math.max(1, math.min(rel.n, spark.sparkContext.defaultParallelism))
    assert(job.stages.head.numTasks == tasks)
    assert(job.tasks.size == tasks)
    assert(job.tasks.map(_.taskMetrics.shuffleWriteMetrics.bytesWritten).sum == 0L)
  }

  /** Sat(t_i, t_j) of `r`, evaluated predicate by predicate on the driver. */
  private def satMask(r: EncodedRelation, s: PredicateSpace, i: Int, j: Int): Seq[Long] = {
    val m = new Array[Long](Bits.words(s.size))
    s.predicates.indices.foreach(p => if (r.eval(s.predicates(p), i, j)) Bits.set(m, p))
    m.toSeq
  }

  /** The t/t′ swap image of a mask, by [[PredicateSpace.swapOf]]. */
  private def swapped(s: PredicateSpace, mask: Seq[Long]): Seq[Long] = {
    val m = new Array[Long](Bits.words(s.size))
    Bits.iterator(mask.toArray).foreach(p => Bits.set(m, s.swapOf(p)))
    m.toSeq
  }

  /** The classes and counts of `r` in order of first appearance over the
    * pairs (i, j), i outer and j ≠ i inner, each mask evaluated predicate by
    * predicate on the driver.
    */
  private def rowMajorClasses(r: EncodedRelation, s: PredicateSpace): Seq[(Seq[Long], Long)] = {
    val classes = mutable.LinkedHashMap.empty[Seq[Long], Long]
    for (i <- 0 until r.n; j <- 0 until r.n if j != i) {
      val m = satMask(r, s, i, j)
      classes(m) = classes.getOrElse(m, 0L) + 1L
    }
    classes.toSeq
  }

  /** `vios` in the class order of [[rowMajorClasses]], from the same
    * evaluation of every ordered pair (i, j ≠ i): per class, each tuple with
    * its pairs of the class in which it is t_i or t_j, tid-ascending.
    */
  private def rowMajorVios(r: EncodedRelation, s: PredicateSpace): Seq[Seq[Long]] = {
    val classes = mutable.LinkedHashMap.empty[Seq[Long], Array[Long]]
    for (i <- 0 until r.n; j <- 0 until r.n if j != i) {
      val perTid = classes.getOrElseUpdate(satMask(r, s, i, j), new Array[Long](r.n))
      perTid(i) += 1L
      perTid(j) += 1L
    }
    classes.values.map(v => v.indices.filter(v(_) > 0L).map(t => Evidence.pack(t, v(t)))).toSeq
  }

  /** Rows 0 and 2 are equal, so the pairs (0, 2) and (2, 0) form a class
    * that is its own mirror.
    */
  private lazy val twinFrame = spark.createDataFrame(Seq(
    Row("a", 1.0, 2.0), Row("b", 2.0, 1.0), Row("a", 1.0, 2.0)).asJava,
    StructType(Seq(StructField("s", StringType), StructField("x", DoubleType),
      StructField("y", DoubleType))))

  test("class ids are first appearance in row-major pair order; vios are tid-ascending") {
    val df2 = Fixtures.smallMixed(spark, n = 35, seed = 9L)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.0)
    val rel2 = EncodedRelation.fromDataFrame(df2)
    val twinSpace = PredicateSpace.build(twinFrame, overlapThreshold = 0.0)
    // n = 0, 1, 2 and 3 over one space; at n = 3 a class is its own mirror.
    val twins = (0 to 3).map(k => (EncodedRelation.fromDataFrame(twinFrame.limit(k)), twinSpace))
    for ((r, s) <- Seq((rel, space), (rel2, space2)) ++ twins) {
      val e = EvidenceBuilder.build(spark, r, s, needVios = true)
      val ref = rowMajorClasses(r, s)
      assert(e.masks.map(_.toSeq).toSeq == ref.map(_._1), s"n=${r.n}: class order")
      assert(e.counts.toSeq == ref.map(_._2), s"n=${r.n}: counts")
      assert(e.vios.get.map(_.toSeq).toSeq == rowMajorVios(r, s), s"n=${r.n}: vios")
      e.masks.indices.foreach { c =>
        val tids = e.viosOf(c).map(Evidence.tidOf).toSeq
        assert(tids == tids.sorted.distinct, s"n=${r.n}, class $c: vios not tid-ascending")
      }
      if (r.n == 3)
        assert(e.masks.exists(m => swapped(s, m.toSeq) == m.toSeq), "no class is its own mirror")
    }
    // An id budget that cuts the scan into several ranges per core, so the
    // driver sums `vios` over many tasks' runs.
    val parallelism = spark.sparkContext.defaultParallelism
    for ((r, s) <- Seq((rel, space), (rel2, space2))) {
      val budget = math.max(1, r.n * (r.n - 1) / 2 / (3 * parallelism))
      assert(EvidenceBuilder.rangeCount(r.n, parallelism, needVios = true, budget) >= math.min(r.n, 3 * parallelism))
      val clues = new Clues(s)
      val e = EvidenceBuilder.scan(spark, r.n, s, needVios = true, clues.width, clues.rowStep(r),
        clues.decode, clues.mirror, idBudget = budget)
      val ref = rowMajorClasses(r, s)
      assert(e.masks.map(_.toSeq).toSeq == ref.map(_._1), s"n=${r.n}, budget $budget: class order")
      assert(e.counts.toSeq == ref.map(_._2), s"n=${r.n}, budget $budget: counts")
      assert(e.vios.get.map(_.toSeq).toSeq == rowMajorVios(r, s), s"n=${r.n}, budget $budget: vios")
    }
  }

  test("EndpointTally: per key, each tuple's pairs j > i as either endpoint") {
    val rnd = new scala.util.Random(31L)
    val n = 40
    val mate = Array(3, 1, 4, 0, 2, 5) // the mirror of class c; classes 1 and 5 are their own
    val cls = Array.fill(n, n)(rnd.nextInt(mate.length)) // the class of pair (i, j), j > i
    def pair(c: Int) = math.min(c, mate(c))
    val want = mutable.Map.empty[(Int, Int), Long].withDefaultValue(0L)
    for (i <- 0 until n; j <- i + 1 until n) {
      val c = cls(i)(j)
      val w = if (mate(c) == c) 2L else 1L
      want((pair(c), i)) += w; want((pair(c), j)) += w
    }
    /** Run r of `runs`, decoded here from its varints: (t, count) pairs. */
    def entries(runs: TidRuns, r: Int): Seq[(Int, Long)] = {
      val out = Seq.newBuilder[(Int, Long)]
      var (x, t) = (runs.starts(r), -1)
      def varint(): Int = {
        var (v, sh, b) = (0, 0, 0)
        while ({ b = runs.bytes(x); x += 1; v |= (b & 0x7f) << sh; sh += 7; b < 0 }) ()
        v
      }
      while (x < runs.starts(r + 1)) { t += varint() + 1; out += ((t, varint().toLong)) }
      assert(x == runs.starts(r + 1), s"run $r overruns its end")
      out.result()
    }
    // The rows as one task, as three, and as one row per task.
    val splits = Seq(Seq(0 until n), Seq(0 until 4, 4 until 11, 11 until n), (0 until n).map(i => i until i + 1))
    for (split <- splits) {
      val got = mutable.Map.empty[(Int, Int), Long].withDefaultValue(0L)
      for (rows <- split) {
        // Local key ids in order of first appearance, as a scan task numbers them.
        val local = mutable.LinkedHashMap.empty[Int, Int]
        val tally = new EndpointTally(n, rows)
        for (i <- rows) {
          val at = tally.offset(i)
          for (j <- i + 1 until n) tally.ids(at + j) = local.getOrElseUpdate(cls(i)(j), local.size)
        }
        val classOf = local.map(_.swap)
        val runs = tally.runs(local.size)
        assert(runs.starts.length == local.size + 1)
        val sums = new TidSums(n)
        for (k <- 0 until local.size) {
          val run = entries(runs, k)
          val tids = run.map(_._1)
          assert(tids == tids.sorted.distinct && tids.forall(_ < n) && run.forall(_._2 >= 1),
            s"$rows: key $k's run $run")
          runs.addTo(k, sums)
          assert(sums.drain().toSeq == run.map { case (t, cnt) => Evidence.pack(t, cnt) }, s"$rows: addTo of key $k")
          // A key's run adds to its mirror key's, twice for a key that is its own mirror.
          val c = classOf(k)
          for ((t, cnt) <- run) got((pair(c), t)) += (if (mate(c) == c) 2 * cnt else cnt)
        }
      }
      assert(got == want, s"${split.length} tasks")
    }
  }

  test("pairRanges: max(1, min(n, parallelism)) contiguous ranges over [0, n), balanced by pairs j > i") {
    for (n <- Seq(0, 1, 2, 3, 4, 7, 35, 2457, 100000); parallelism <- Seq(1, 2, 3, 4, 7, 16)) {
      val ranges = EvidenceBuilder.pairRanges(n, parallelism)
      val k = math.max(1, math.min(n, parallelism))
      assert(ranges.length == k, s"n=$n, parallelism=$parallelism")
      assert(ranges.head.start == 0 && ranges.last.end == n, s"n=$n: not [0, n)")
      ranges.foreach(r => assert(r.step == 1 && r.start <= r.end, s"n=$n: $r"))
      ranges.zip(ranges.tail).foreach { case (a, b) => assert(a.end == b.start, s"n=$n: $a, $b") }
      val total = n.toLong * (n - 1) / 2
      val pairs = ranges.map(_.foldLeft(0L)((sum, i) => sum + (n - 1 - i)))
      assert(pairs.sum == total, s"n=$n")
      // |pairs − total / k| ≤ n − 1, in integers.
      pairs.foreach(p => assert(math.abs(p * k - total) <= math.max(0, n - 1).toLong * k,
        s"n=$n, parallelism=$parallelism: $p pairs of $total"))
    }
    assert(EvidenceBuilder.pairRanges(100000, 4).map(_.start).toSeq == Seq(0, 13398, 29290, 50000))
    // With vios, at least one range per budget of key ids; each range holds at
    // most budget + n − 1 pairs.
    for (n <- Seq(0, 1, 2, 3, 7, 35, 2457, 100000); parallelism <- Seq(1, 4, 16);
         budget <- Seq(1, 10, 1000, EvidenceBuilder.IdBudget)) {
      val total = n.toLong * (n - 1) / 2
      val k = EvidenceBuilder.rangeCount(n, parallelism, needVios = true, budget)
      assert(k == math.max(1L, math.min(n.toLong, math.max(parallelism.toLong, (total + budget - 1) / budget))),
        s"n=$n, parallelism=$parallelism, budget=$budget")
      assert(EvidenceBuilder.rangeCount(n, parallelism, needVios = false, budget) == math.max(1, math.min(n, parallelism)))
      val pairs = EvidenceBuilder.pairRanges(n, k).map(_.foldLeft(0L)((sum, i) => sum + (n - 1 - i)))
      assert(pairs.sum == total && pairs.forall(_ <= budget.toLong + n - 1), s"n=$n, budget=$budget: ${pairs.max}")
    }
    // 4,999,950,000 pairs need 1,193 ranges of 2^22 ids.
    assert(EvidenceBuilder.rangeCount(100000, 4, needVios = true) == 1193)
  }

  /** Pairs of `e` that satisfy predicate `p`. */
  private def satCount(e: Evidence, p: Int): Long =
    e.masks.indices.filter(e.has(_, p)).map(e.counts).sum

  /** Fast and naive evidence with `vios`, checked to agree on the classes
    * in order, their counts and their `vios`, and with the row-major
    * references on all three.
    */
  private def agreeInOrder(r: EncodedRelation, s: PredicateSpace): Evidence = {
    val fast = EvidenceBuilder.build(spark, r, s, needVios = true)
    val naive = NaiveEvidenceBuilder.build(spark, r, s, needVios = true)
    assert(fast.masks.map(_.toSeq).toSeq == naive.masks.map(_.toSeq).toSeq, "masks in order")
    assert(fast.counts.toSeq == naive.counts.toSeq, "counts")
    assert(fast.vios.get.map(_.toSeq).toSeq == naive.vios.get.map(_.toSeq).toSeq, "vios")
    val ref = rowMajorClasses(r, s)
    assert(fast.masks.map(_.toSeq).toSeq == ref.map(_._1), "row-major class order")
    assert(fast.counts.toSeq == ref.map(_._2), "row-major counts")
    assert(fast.vios.get.map(_.toSeq).toSeq == rowMajorVios(r, s), "row-major vios")
    fast
  }

  test("null = null and NaN = NaN, for same-column and two-column cross groups, in both builders") {
    val schema = StructType(Seq(
      StructField("a", StringType), StructField("b", StringType), StructField("x", DoubleType)))
    val rows = Seq(
      Row(null, "p", Double.NaN),
      Row("p", null, 1.0),
      Row(null, null, Double.NaN),
      Row("q", "q", 2.0),
      Row(null, "r", null),
      Row("p", null, 1.0))
    val df2 = spark.createDataFrame(rows.asJava, schema)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.0)
    val rel2 = EncodedRelation.fromDataFrame(df2)
    def eq(ca: String, cb: String): Int = space2.indexOf(Predicate.normalized(
      ColRef(0, space2.colNames.indexOf(ca)), ColRef(1, space2.colNames.indexOf(cb)), Op.Eq))
    val fast = agreeInOrder(rel2, space2)
    val naive = NaiveEvidenceBuilder.build(spark, rel2, space2, needVios = true)
    for (e <- Seq(fast, naive)) {
      // a: nulls at 0, 2, 4 give 3·2 ordered pairs, p at 1, 5 two more.
      assert(satCount(e, eq("a", "a")) == 8, "t.a = t'.a")
      // a null (0, 2, 4) with b null (1, 2, 5) except (2, 2), and a = b = p: (1, 0), (5, 0).
      assert(satCount(e, eq("a", "b")) == 10, "t.a = t'.b")
      assert(satCount(e, eq("b", "a")) == 10, "t.b = t'.a")
      // x: NaN (null included) at 0, 2, 4 and 1.0 at 1, 5.
      assert(satCount(e, eq("x", "x")) == 8, "t.x = t'.x")
    }
  }

  test("clues wider than one long: more than 32 comparison groups") {
    val rnd = new scala.util.Random(17L)
    val nNum = 34
    // Disjoint value ranges keep the numeric columns incomparable, except
    // n33, which shares n0's values; s0 and s1 share theirs.
    val schema = StructType((0 until nNum).map(c => StructField(s"n$c", DoubleType)) ++
      Seq(StructField("s0", StringType), StructField("s1", StringType)))
    val rows = (0 until 30).map { _ =>
      val nums = (0 until nNum).map { c =>
        if (rnd.nextInt(8) == 0) null else ((if (c == nNum - 1) 0 else 100 * c) + rnd.nextInt(3)).toDouble
      }
      val strs = Seq.fill(2)(Seq("u", "v", null)(rnd.nextInt(3)))
      Row.fromSeq(nums ++ strs)
    }
    val df2 = spark.createDataFrame(rows.asJava, schema)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.3)
    val clues = new Clues(space2)
    assert(clues.groups.length == 44 && clues.width == 2, s"${clues.groups.length} groups")
    // Groups 31 and 32 sit at clue bits 62–63 and 64–65; both have three states.
    for (g <- Seq(31, 32)) assert(!clues.groups(g).isSameTuple && clues.groups(g).states.toSeq == Seq(0, 1, 2))
    val ev2 = agreeInOrder(EncodedRelation.fromDataFrame(df2), space2)
    assert(ev2.counts.sum == 30L * 29)
  }

  test("state codes: outcomes share a code exactly when their op bits agree; clues decode injectively") {
    val spaces = Seq(
      (rel, space),
      locally {
        val df2 = Fixtures.smallMixed(spark, n = 35, seed = 9L)
        (EncodedRelation.fromDataFrame(df2), PredicateSpace.build(df2, overlapThreshold = 0.0))
      },
      locally {
        val df2 = spark.createDataFrame(edgeRows.asJava, edgeSchema)
        (EncodedRelation.fromDataFrame(df2), PredicateSpace.build(df2, overlapThreshold = 0.0))
      })
    for ((r, s) <- spaces) {
      val clues = new Clues(s)
      for ((g, members) <- clues.groups.zip(s.groupMembers); t <- 0 until 3) {
        // The reference: the members whose operator holds at outcome t (0 <, 1 =, 2 >).
        def holding(o: Int) = members.filter(p => s.predicates(p).op.evalCmp(o - 1)).toSeq
        val want = new Array[Long](Bits.words(s.size))
        holding(t).foreach(Bits.set(want, _))
        assert(g.masks(g.states(t)).toSeq == want.toSeq, s"$g outcome $t: state mask")
        for (u <- 0 until 3)
          assert((g.states(t) == g.states(u)) == (holding(t) == holding(u)), s"$g outcomes $t, $u")
      }
      // The clues of the pairs j > i, each also with one group moved to each
      // of its states. A clue's swap image must be the mask of (j, i), and
      // the row step must leave the slices j ≤ i alone.
      val w = clues.width
      val sentinel = 0x5a5a5a5a5a5a5a5aL
      val row = new Array[Long](r.n * w)
      val acc = new Array[Int](r.n)
      val step = clues.rowStep(r)
      val reached = mutable.LinkedHashSet.empty[Seq[Long]]
      for (i <- 0 until r.n) {
        java.util.Arrays.fill(row, sentinel)
        java.util.Arrays.fill(acc, -1)
        step.fill(i, row, acc)
        assert(row.take((i + 1) * w).forall(_ == sentinel), s"n=${r.n}, row $i: a slice j ≤ i moved")
        for (j <- i + 1 until r.n) {
          val clue = row.slice(j * w, (j + 1) * w)
          val mask = clues.decode(clue, 0).toSeq
          assert(mask == satMask(r, s, i, j), s"pair ($i, $j)")
          assert(swapped(s, mask) == satMask(r, s, j, i), s"pair ($j, $i), by the mirror")
          reached += clue.toSeq
          for ((g, gi) <- clues.groups.zipWithIndex; st <- g.states.distinct) {
            val moved = clue.clone()
            val sh = (gi & 31) << 1
            moved(gi >>> 5) = (moved(gi >>> 5) & ~(3L << sh)) | (st.toLong << sh)
            reached += moved.toSeq
          }
        }
      }
      val masks = reached.toSeq.map(c => clues.decode(c.toArray, 0).toSeq)
      assert(masks.distinct.size == reached.size, s"n=${r.n}: two clues decode to one mask")
    }
  }

  private def oracleViolationCount(data: DataFrame, hsIdx: Set[Int], sql: String): Unit = {
    import spark.implicits._
    val viol = ev.violationsOf(hsIdx)
    val sparkDf = Seq(viol).toDF("viol")
    Oracle.assertEquivalent(sparkDf, sql, "r" -> data.withColumn("rid", monotonically_increasing_id()))
  }

  test("oracle: phi1 violation count agrees with DuckDB") {
    oracleViolationCount(df,
      hs(("state", Op.Eq, "state"), ("income", Op.Gt, "income"), ("tax", Op.Leq, "tax")),
      """SELECT count(*) AS viol FROM r t, r s
         WHERE t.rid <> s.rid
           AND t.state = s.state
           AND CAST(t.income AS DOUBLE) > CAST(s.income AS DOUBLE)
           AND CAST(t.tax AS DOUBLE) <= CAST(s.tax AS DOUBLE)""")
  }

  test("oracle: phi2 violation count agrees with DuckDB") {
    oracleViolationCount(df,
      hs(("zip", Op.Eq, "zip"), ("state", Op.Neq, "state")),
      """SELECT count(*) AS viol FROM r t, r s
         WHERE t.rid <> s.rid AND t.zip = s.zip AND t.state <> s.state""")
  }

  test("oracle: single-tuple DC violation count agrees with DuckDB") {
    // not(t.income < t.tax): never violated in the running example; check the
    // inverse not(t.income > t.tax) which every pair violates.
    val hsIdx = Set(pred("income", 0, Op.Leq, "tax", 0))
    import spark.implicits._
    val sparkDf = Seq(ev.violationsOf(hsIdx)).toDF("viol")
    Oracle.assertEquivalent(sparkDf,
      """SELECT count(*) AS viol FROM r t, r s
         WHERE t.rid <> s.rid AND CAST(t.income AS DOUBLE) > CAST(t.tax AS DOUBLE)""",
      "r" -> df.withColumn("rid", monotonically_increasing_id()))
  }

  test("oracle: random DCs on the mixed relation agree with DuckDB") {
    val df2 = Fixtures.smallMixed(spark, n = 30, seed = 5L)
    val space2 = PredicateSpace.build(df2, overlapThreshold = 0.0)
    val rel2 = EncodedRelation.fromDataFrame(df2)
    val ev2 = EvidenceBuilder.build(spark, rel2, space2)
    def idx(ca: String, sa: Int, op: Op, cb: String, sb: Int): Int = {
      val a = space2.colNames.indexOf(ca); val b = space2.colNames.indexOf(cb)
      space2.indexOf(Predicate.normalized(ColRef(sa, a), ColRef(sb, b), op))
    }
    import spark.implicits._
    val cases = Seq(
      (Set(idx("g", 0, Op.Neq, "g", 1)),
        "t.g = s.g"),
      (Set(idx("g", 0, Op.Neq, "g", 1), idx("x", 0, Op.Leq, "x", 1)),
        "t.g = s.g AND CAST(t.x AS DOUBLE) > CAST(s.x AS DOUBLE)"),
      (Set(idx("x", 0, Op.Geq, "y", 1)),
        "CAST(t.x AS DOUBLE) < CAST(s.y AS DOUBLE)"),
      (Set(idx("h", 0, Op.Neq, "h", 1), idx("z", 0, Op.Neq, "z", 1)),
        "t.h = s.h AND CAST(t.z AS DOUBLE) = CAST(s.z AS DOUBLE)"),
    )
    cases.foreach { case (hsIdx, cond) =>
      val sparkDf = Seq(ev2.violationsOf(hsIdx)).toDF("viol")
      Oracle.assertEquivalent(sparkDf,
        s"SELECT count(*) AS viol FROM r t, r s WHERE t.rid <> s.rid AND $cond",
        "r" -> df2.withColumn("rid", monotonically_increasing_id()))
    }
  }
}
