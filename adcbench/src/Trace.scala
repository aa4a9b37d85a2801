package adcbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import scala.collection.mutable

/** Spark task totals of one job group. */
final class TaskTotals {
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var shuffleBytes = 0L
}

/** Attributes Spark task time, CPU and shuffle writes to job groups set with
  * `SparkContext.setJobGroup` around each traced call.
  */
final class GroupListener extends SparkListener {
  private val groupOfStage = mutable.HashMap.empty[Int, String]
  private val groupOfJob = mutable.HashMap.empty[Int, String]
  private val totals = mutable.HashMap.empty[String, TaskTotals]
  private val endedGroups = mutable.HashSet.empty[String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.get(e.jobId).foreach(endedGroups += _)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    groupOfStage.get(e.stageId).filter(_ => m != null).foreach { g =>
      val t = totals.getOrElseUpdate(g, new TaskTotals)
      t.tasks += 1
      t.runMs += m.executorRunTime
      t.cpuNs += m.executorCpuTime
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def totalsOf(group: String): TaskTotals = synchronized(totals.getOrElse(group, new TaskTotals))

  /** Block until every event posted so far has reached this listener: run a
    * marker job and wait for its end event, which the bus delivers last.
    */
  def drain(sc: SparkContext): Unit = {
    val marker = s"drain-${System.nanoTime()}"
    sc.setJobGroup(marker, marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!synchronized(endedGroups.contains(marker))) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("listener bus did not drain")
      Thread.sleep(5)
    }
  }
}

/** Delegating approximation function that counts and times calls. It keeps
  * `pairBased` and `gFromPairWeight`, so ADCEnum takes the same paths.
  */
final class CountingFn(inner: ApproxFunction) extends ApproxFunction {
  val name: String = inner.name
  var gCalls = 0L
  var gNanos = 0L
  var pairWeightCalls = 0L

  override def pairBased: Boolean = inner.pairBased

  def g(viol: Iterator[Int]): Double = {
    gCalls += 1
    val t0 = System.nanoTime()
    val r = inner.g(viol)
    gNanos += System.nanoTime() - t0
    r
  }

  override def gFromPairWeight(w: Long): Double = {
    pairWeightCalls += 1
    inner.gFromPairWeight(w)
  }
}

/** One `AdcMiner.mine` call taken apart: each layer's public function is
  * called in the order `AdcMiner.mineWithSpace` uses and timed from outside.
  */
object Trace {

  final case class Traced(dcs: Vector[DenialConstraint], space: PredicateSpace,
      values: Map[String, Double], groups: Map[String, String])

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private def inGroup[A](sc: SparkContext, group: String)(body: => A): (A, Double) = {
    sc.setJobGroup(group, group)
    try timed(body)
    finally sc.clearJobGroup()
  }

  /** Run one traced operation; `tag` makes its job groups unique. Spark task
    * totals are added later by [[withTaskTotals]], once the bus has drained.
    */
  def run(spark: SparkSession, df: DataFrame, cfg: MinerConfig, tag: Int): Traced = {
    val sc = spark.sparkContext
    val g = Seq("profile", "encode", "evidence", "vios").map(s => s -> s"$s#$tag").toMap
    val needVios = ApproxFunction.needsVios(cfg.fName)

    val (space, profileS) = inGroup(sc, g("profile"))(PredicateSpace.build(df, cfg.overlapThreshold))
    val (rel, encodeS) = inGroup(sc, g("encode"))(
      EncodedRelation.fromDataFrame(Sampler.sample(df, cfg.sampleFraction, cfg.seed)))
    val (evidence, evidenceS) = inGroup(sc, g("evidence"))(
      EvidenceBuilder.build(spark, rel, space, needVios = false))
    val (withVios, viosCallS) =
      if (needVios) inGroup(sc, g("vios"))(EvidenceBuilder.build(spark, rel, space, needVios = true))
      else (evidence, 0.0)

    val fn = new CountingFn(ApproxFunction(cfg.fName, withVios, cfg.epsilon, cfg.alpha))
    val adcEnum = new AdcEnum(withVios.masks, withVios.counts, withVios.nPreds, space.groupOf, fn,
      cfg.epsilon, cfg.chooseMaxIntersection, cfg.maxDcSize)
    val (hss, enumS) = timed(adcEnum.enumerate())
    val (dcs, canonS) = timed(DenialConstraint.distinctCanonical(hss.map(space.dcFromHittingSet)))

    val viosS = if (needVios) viosCallS - evidenceS else 0.0
    val viosEntries = withVios.vios.map(_.map(_.length.toLong).sum).getOrElse(0L)
    val gS = fn.gNanos / 1e9
    val values = Map(
      "profile.s" -> profileS,
      "profile.predicates" -> space.size.toDouble,
      "encode.s" -> encodeS,
      "encode.rows" -> rel.n.toDouble,
      "evidence.s" -> evidenceS,
      "evidence.pairs" -> evidence.totalPairs.toDouble,
      "evidence.mpairs_per_s" -> evidence.totalPairs / evidenceS / 1e6,
      "evidence.classes" -> evidence.nClasses.toDouble,
      "evidence.mask_mb" -> evidence.nClasses.toDouble * Bits.words(space.size) * 8 / 1e6,
      "vios.s" -> viosS,
      "vios.entries" -> viosEntries.toDouble,
      "vios.mb" -> viosEntries * 8 / 1e6,
      "fn.g_calls" -> fn.gCalls.toDouble,
      "fn.g_s" -> gS,
      "fn.pairweight_calls" -> fn.pairWeightCalls.toDouble,
      "enum.s" -> enumS,
      "enum.self_s" -> (enumS - gS),
      "enum.nodes" -> adcEnum.nodes.toDouble,
      "enum.nodes_per_s" -> adcEnum.nodes / enumS,
      "canon.s" -> canonS,
      "canon.dcs" -> dcs.size.toDouble,
      "layers.s" -> (profileS + encodeS + evidenceS + viosS + enumS + canonS),
    )
    Traced(dcs, space, values, g)
  }

  /** Add the Spark task totals of each layer's job group. */
  def withTaskTotals(t: Traced, listener: GroupListener): Map[String, Double] = {
    val profile = listener.totalsOf(t.groups("profile"))
    val evidence = listener.totalsOf(t.groups("evidence"))
    val vios = listener.totalsOf(t.groups("vios"))
    val viosShuffle = if (vios.tasks == 0L) 0L else vios.shuffleBytes - evidence.shuffleBytes
    t.values ++ Map(
      "profile.executor_cpu_s" -> profile.cpuNs / 1e9,
      "profile.task_s" -> profile.runMs / 1e3,
      "profile.spark_tasks" -> profile.tasks.toDouble,
      "profile.shuffle_mb" -> profile.shuffleBytes / 1e6,
      "evidence.executor_cpu_s" -> evidence.cpuNs / 1e9,
      "evidence.task_s" -> evidence.runMs / 1e3,
      "evidence.spark_tasks" -> evidence.tasks.toDouble,
      "evidence.shuffle_mb" -> evidence.shuffleBytes / 1e6,
      "vios.shuffle_mb" -> viosShuffle / 1e6,
    )
  }
}
