package repro.bench

import repro.SparkSpec
import repro.core.{EncodedRelation, EvidenceBuilder, NaiveEvidenceBuilder, PredicateSpace}
import repro.core.Timing.timed
import repro.data.{Datasets, TaxData}
import repro.eval.Tables

/** Companion to Fig. 7: at full bench scale the pair-quadratic evidence
  * construction dominates total time (as in the paper), and the AFASTDC-like
  * per-predicate builder loses to the shared-comparison one by a growing
  * factor. The dataset-size sweep makes the quadratic shape visible. The
  * fast+vios column shows that `vios` rides on the same single scan. The
  * naive builder also builds `vios`, and every size checks that both builders
  * give the same classes in the same order, with the same counts and `vios`.
  * The fast and fast+vios columns are medians of 3 alternating runs, since
  * the gate compares them; the naive column is one run.
  * `groups` is the number of comparison groups and `clue` the longs per pair
  * key of the fast builder.
  */
class EvidenceScalingBench extends SparkSpec {

  test("evidence construction scaling: fast vs naive builder (Tax)") {
    // Warm-up: build once with each builder so the timed sweep excludes JIT
    // and first-job start-up.
    locally {
      val rel = EncodedRelation.fromDataFrame(TaxData.generate(spark, 500))
      val space = PredicateSpace.build(rel, 0.3)
      EvidenceBuilder.build(spark, rel, space, needVios = true)
      NaiveEvidenceBuilder.build(spark, rel, space, needVios = true)
    }
    val rows = Seq(500, 1000, 2000, 3000).map { n =>
      val rel = EncodedRelation.fromDataFrame(TaxData.generate(spark, n))
      val space = PredicateSpace.build(rel, 0.3)
      val runs = Seq.fill(3)((timed(EvidenceBuilder.build(spark, rel, space)),
        timed(EvidenceBuilder.build(spark, rel, space, needVios = true))))
      def median(ms: Seq[Long]) = ms.sorted.apply(ms.length / 2)
      val (fastEv, viosEv) = (runs.head._1._1, runs.head._2._1)
      val (fastMs, viosMs) = (median(runs.map(_._1._2)), median(runs.map(_._2._2)))
      val (naiveEv, naiveMs) = timed(NaiveEvidenceBuilder.build(spark, rel, space, needVios = true))
      assert(fastEv.checksum == naiveEv.checksum, s"builders disagree at n=$n")
      assert(viosEv.checksum == fastEv.checksum, s"vios build disagrees at n=$n")
      for (ev <- Seq(fastEv, viosEv)) {
        assert(ev.masks.map(_.toSeq).toSeq == naiveEv.masks.map(_.toSeq).toSeq, s"n=$n: masks in order")
        assert(ev.counts.toSeq == naiveEv.counts.toSeq, s"n=$n: counts")
      }
      assert(viosEv.vios.get.map(_.toSeq).toSeq == naiveEv.vios.get.map(_.toSeq).toSeq, s"n=$n: vios")
      (n, space.groupMembers.length, EvidenceBuilder.clueWidth(space), fastEv.nClasses, fastMs,
        naiveMs, viosMs)
    }
    println(Tables.banner("Evidence-set construction scaling (Tax)"))
    println(Tables.fmt(
      Seq("rows", "pairs", "groups", "clue", "classes", "fastMs", "fast Mpairs/s", "fast+vios ms",
        "naive+vios ms", "naive/fast+vios"),
      rows.map { case (n, groups, clue, cls, f, nv, fv) =>
        val pairs = n.toLong * (n - 1)
        Seq(n, pairs, groups, clue, cls, f, f"${pairs / 1e3 / math.max(1, f)}%.1f", fv, nv,
          f"${nv.toDouble / math.max(1, fv)}%.2fx")
      }))
    // Gate: vios rides on the same scan, so fast+vios stays within 1.5x of fast.
    rows.filter(_._1 >= 2000).foreach { case (n, _, _, _, fast, _, fastVios) =>
      assert(fastVios <= 1.5 * fast, s"n=$n: fast+vios ($fastVios ms) > 1.5x fast ($fast ms)")
    }
    // Shape 1: the naive per-predicate builder is slower at every size that
    // is large enough to measure, and the gap does not shrink with scale.
    val big = rows.filter(_._6 > 300)
    big.foreach { case (n, _, _, _, _, naive, fastVios) =>
      assert(naive > fastVios, s"n=$n: naive+vios ($naive ms) not slower than fast+vios ($fastVios ms)")
    }
    // Shape 2: quadratic growth — 4x the rows costs clearly more than 4x.
    val t500 = rows.head._6.toDouble
    val t2000 = rows(2)._6.toDouble
    assert(t2000 > t500 * 2, s"no quadratic growth visible: $t500 -> $t2000")
  }
}
