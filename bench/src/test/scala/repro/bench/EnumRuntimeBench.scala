package repro.bench

import repro.SparkSpec
import repro.data.Datasets
import repro.eval.{Experiments, Tables}

/** Reproduces the Fig. 6 / Fig. 9 / Fig. 10 shapes: ADCEnum vs the
  * FASTDC-style SearchMC baseline, across datasets and sample sizes, and the
  * max- vs min-intersection uncovered-set choice.
  */
class EnumRuntimeBench extends SparkSpec {

  test("Fig. 6 — ADCEnum vs SearchMC (f1, eps=0.1, cap=3)") {
    val rows = Experiments.enumCompare(spark, Datasets.all)
    println(Tables.banner("Fig. 6 — enumeration time, ADCEnum vs SearchMC"))
    println(Tables.fmt(
      Seq("dataset", "tuples", "classes", "adcEnumMs", "searchMcMs", "speedup", "nDCs"),
      rows.map(r => Seq(r.dataset, r.nTuples, r.nClasses, r.adcEnumMs, r.searchMcMs,
        f"${r.searchMcMs.toDouble / math.max(1, r.adcEnumMs)}%.2fx", r.nDcs))))
    // Shape: ADCEnum is the faster enumerator overall, and never much slower
    // on any dataset large enough to measure.
    val adcTotal = rows.map(_.adcEnumMs).sum
    val mcTotal = rows.map(_.searchMcMs).sum
    assert(adcTotal < mcTotal, s"ADCEnum total $adcTotal !< SearchMC total $mcTotal")
    rows.filter(_.searchMcMs > 1000).foreach { r =>
      assert(r.adcEnumMs <= r.searchMcMs * 1.2, s"${r.dataset}: ADCEnum slower")
    }
  }

  test("Fig. 9 — enumeration time across sample sizes") {
    val rows = Experiments.enumCompare(spark,
      Seq("Tax", "Food", "Voter").map(Datasets.byName),
      sampleFracs = Seq(0.2, 0.4, 0.6, 0.8, 1.0))
    println(Tables.banner("Fig. 9 — enumeration time vs sample size"))
    println(Tables.fmt(
      Seq("dataset", "frac", "tuples", "classes", "adcEnumMs", "searchMcMs"),
      rows.map(r => Seq(r.dataset, r.sampleFrac, r.nTuples, r.nClasses,
        r.adcEnumMs, r.searchMcMs))))
    // The paper's observation: enumeration time tracks the number of distinct
    // evidence classes, which stabilises with sample size — assert classes
    // are monotone-ish in the sample fraction.
    rows.groupBy(_.dataset).foreach { case (name, rs) =>
      val sorted = rs.sortBy(_.sampleFrac)
      assert(sorted.last.nClasses >= sorted.head.nClasses, name)
    }
  }

  test("Fig. 10 — max vs min intersection choice") {
    val rows = Experiments.choiceCompare(spark,
      Seq("Tax", "Stock", "Hospital").map(Datasets.byName))
    println(Tables.banner("Fig. 10 — uncovered-set choice in ADCEnum"))
    println(Tables.fmt(
      Seq("dataset", "fn", "maxChoiceMs", "minChoiceMs", "maxNodes", "minNodes"),
      rows.map(r => Seq(r.dataset, r.fn, r.maxChoiceMs, r.minChoiceMs,
        r.maxNodes, r.minNodes))))
    // Where the node counts differ: nodes = 1 + skipNodes + hitNodes; a
    // WillCover prune cuts a skip branch, a crit failure a hit candidate.
    println(Tables.fmt(
      Seq("dataset", "fn", "choice", "nodes", "skipNodes", "hitNodes", "willCoverPrunes",
        "critFailures"),
      rows.flatMap(r => Seq(("max", r.maxNodes, r.maxBranches), ("min", r.minNodes, r.minBranches))
        .map { case (choice, nodes, b) => Seq(r.dataset, r.fn, choice, nodes, b.skipNodes,
          b.hitNodes, b.willCoverPrunes, b.critFailures) })))
    // The paper reports the max-intersection choice lowering the number of
    // recursive calls on its real datasets. On our synthetic data the
    // direction INVERTS (min-choice visits fewer nodes) — the heuristic is
    // data-dependent. We report the measured direction rather than assert
    // the paper's; see EXPERIMENTS.md.
    val maxNodes = rows.map(_.maxNodes).sum
    val minNodes = rows.map(_.minNodes).sum
    println(f"\ntotal nodes: maxChoice=$maxNodes minChoice=$minNodes " +
      f"(paper expects maxChoice lower; measured ratio ${maxNodes.toDouble / minNodes}%.2f)")
    rows.foreach { r =>
      assert(r.maxNodes > 0 && r.minNodes > 0, s"${r.dataset}/${r.fn}")
      Seq(("max", r.maxNodes, r.maxBranches), ("min", r.minNodes, r.minBranches)).foreach {
        case (choice, nodes, b) =>
          assert(nodes == 1 + b.skipNodes + b.hitNodes, s"${r.dataset}/${r.fn}/$choice")
      }
    }
  }
}
