package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.eval.{Experiments, Tables}

/** Reproduces the Fig. 7 / Fig. 8 shapes: total mining time by system and
  * ADCMiner's per-approximation-function split (evidence vs enumeration).
  */
class TotalRuntimeBench extends SparkSpec {

  test("Fig. 7 — total runtime by system (f1, eps=0.1, cap=3)") {
    val rows = Experiments.totalCompare(spark, Datasets.all)
    println(Tables.banner("Fig. 7 — ADCMiner vs DCFinder-like vs AFASTDC-like"))
    println(Tables.fmt(
      Seq("dataset", "system", "spaceMs", "evidenceMs", "enumMs", "totalMs", "nDCs"),
      rows.map(r => Seq(r.dataset, r.system, r.spaceMs, r.evidenceMs, r.enumMs,
        r.totalMs, r.nDcs))))
    // Shape 1: the naive (AFASTDC-style) evidence construction is slower
    // than the shared-comparison builder wherever it is big enough to measure.
    val byDs = rows.groupBy(_.dataset)
    byDs.foreach { case (name, rs) =>
      val fast = rs.find(_.system == "ADCMiner").get
      val naive = rs.find(_.system == "AFASTDC-like").get
      if (naive.evidenceMs > 1000)
        assert(naive.evidenceMs > fast.evidenceMs, s"$name: naive evidence not slower")
      // Shape 2: ADCMiner's total is the lowest of the three systems. Noise
      // guard as in Fig. 6: only totals over 1 s count, with 1.2x slack.
      rs.filter(r => r.system != "ADCMiner" && r.totalMs > 1000).foreach { r =>
        assert(fast.totalMs <= r.totalMs * 1.2,
          s"$name: ADCMiner total ${fast.totalMs} ms > 1.2x ${r.system} ${r.totalMs} ms")
      }
    }
    val adcTotal = rows.filter(_.system == "ADCMiner").map(_.totalMs).sum
    val afastTotal = rows.filter(_.system == "AFASTDC-like").map(_.totalMs).sum
    assert(adcTotal < afastTotal, "ADCMiner should beat the AFASTDC-like pipeline overall")
  }

  test("Fig. 8 — ADCMiner per approximation function") {
    val rows = Experiments.totalByFunction(spark, Datasets.all)
    println(Tables.banner("Fig. 8 — time split by approximation function"))
    println(Tables.fmt(
      Seq("dataset", "fn", "spaceMs", "evidenceMs", "enumMs", "totalMs", "nDCs"),
      rows.map(r => Seq(r.dataset, r.fn, r.spaceMs, r.evidenceMs, r.enumMs,
        r.totalMs, r.nDcs))))
    // Shape: every function mines a nonempty ADC set at eps=0.1 and the
    // evidence construction cost is shared across functions.
    rows.foreach(r => assert(r.nDcs > 0, s"${r.dataset}/${r.fn}: no ADCs"))
    rows.groupBy(_.dataset).foreach { case (name, rs) =>
      assert(rs.map(_.evidenceMs).distinct.size == 1, s"$name: evidence not shared")
    }
  }
}
