package adcbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** DC count plus SHA-256 of the sorted canonical DC strings. */
final case class Digest(dcs: Int, sha256: String)

object Digest {
  def of(dcs: Seq[DenialConstraint], colNames: IndexedSeq[String]): Digest = {
    val lines = dcs.map(_.pretty(colNames)).sorted
    val sha = MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes(UTF_8))
    Digest(lines.size, sha.map(b => f"$b%02x").mkString)
  }
}

/** ADCMiner benchmark. One operation is one `AdcMiner.mine` call on the
  * workload's cached DataFrame, closed loop, one call at a time.
  *
  * Modes:
  *  - measure (default): end-to-end metrics with tracing off, or per-layer
  *    metrics with `--trace 1`; prints one JSON result as the last line.
  *  - `--record`: mines every seed pool once and prints the digests and
  *    enumeration node counts as JSON, for expected.json.
  */
object Bench {

  private val WarmupCalls = 2
  private val SetupRepeats = 3

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def processCpuNanos(): Long =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def json(v: Any): String = v match {
    case s: String => "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
      } + "\""
    case d: Double => require(!d.isNaN && !d.isInfinite, s"non-finite value $d"); d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.toSeq.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Seq[_] => xs.map(json).mkString("[", ", ", "]")
    case other => throw new IllegalArgumentException(s"cannot render $other")
  }

  private def env(spark: SparkSession, opts: Map[String, String]): Map[String, Any] = Map(
    "commit" -> opts.getOrElse("commit", "unknown"),
    "source_sha256" -> opts.getOrElse("source-sha", "unknown"),
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "spark_master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "shuffle_partitions" -> Workloads.ShufflePartitions,
    "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "spark_version" -> spark.version,
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(opts("workload"))
    val master = opts("master")
    if (opts.get("record").contains("1")) record(w, master, opts)
    else measure(w, master, opts)
  }

  /** Mine every seed pool once and print digests and node counts. */
  private def record(w: Workload, master: String, opts: Map[String, String]): Unit = {
    val spark = Workloads.session(master)
    try {
      val rows = (0 until opts("pools").toInt).map { pool =>
        val (dataSeed, sampleSeed) = Workloads.seeds(pool)
        val df = w.input(spark, dataSeed)
        val r = AdcMiner.mine(spark, df, w.config(sampleSeed))
        df.unpersist()
        val d = Digest.of(r.dcs, r.space.colNames)
        Console.err.println(s"[adcbench] ${w.name} pool $pool: ${d.dcs} DCs, ${r.enumNodes} nodes")
        Map[String, Any]("seed" -> pool, "data_seed" -> dataSeed, "sample_seed" -> sampleSeed,
          "dcs" -> d.dcs, "sha256" -> d.sha256, "enum_nodes" -> r.enumNodes,
          "evidence_classes" -> r.evidence.nClasses, "sample_rows" -> r.sampleRows)
      }
      println(json(Map("workload" -> w.name, "env" -> env(spark, opts), "pools" -> rows)))
    } finally spark.stop()
  }

  private def measure(w: Workload, master: String, opts: Map[String, String]): Unit = {
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val expected = Digest(opts("expect-dcs").toInt, opts("expect-sha"))
    val pool = opts("pool").toInt
    val (dataSeed, sampleSeed) = Workloads.seeds(pool)
    val cfg = w.config(sampleSeed)
    def isCorrect(dcs: Seq[DenialConstraint], space: PredicateSpace): Boolean =
      Digest.of(dcs, space.colNames) == expected

    // Set-up: session start plus generating and caching the input, repeated
    // so that the median is steady; the last repetition is kept.
    val setupTimes = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var df: DataFrame = null
    for (_ <- 0 until (if (trace) 1 else SetupRepeats)) {
      if (spark != null) { df.unpersist(); spark.stop() }
      val t0 = System.nanoTime()
      spark = Workloads.session(master)
      df = w.input(spark, dataSeed)
      setupTimes += (System.nanoTime() - t0) / 1e9
    }
    val listener = new GroupListener
    spark.sparkContext.addSparkListener(listener)

    var attempted = 0
    var failed = 0
    final case class Op(wallS: Double, cpuS: Double, gcS: Double)
    /** One `mine` call, checked against the expected digest. */
    def mineOp(): Option[Op] = {
      attempted += 1
      val cpu0 = processCpuNanos(); val gc0 = gcMillis(); val t0 = System.nanoTime()
      val ok = try {
        val r = AdcMiner.mine(spark, df, cfg)
        isCorrect(r.dcs, r.space)
      } catch {
        case NonFatal(e) => Console.err.println(s"[adcbench] mine failed: $e"); false
      }
      val op = Op((System.nanoTime() - t0) / 1e9, (processCpuNanos() - cpu0) / 1e9, (gcMillis() - gc0) / 1e3)
      if (ok) Some(op) else { failed += 1; None }
    }

    try {
      // Warm-up: the JIT and Spark's code cache settle over the first calls.
      // A fixed count, not a time, so that every run measures from the same
      // point of that curve. The last warm-up result is also the gate's
      // self-test: the same result with one DC dropped must count as a
      // failed operation.
      val warm = (1 to WarmupCalls).map { _ =>
        attempted += 1
        val r = AdcMiner.mine(spark, df, cfg)
        if (!isCorrect(r.dcs, r.space)) failed += 1
        r
      }.last
      val gateOk = warm.dcs.nonEmpty && !isCorrect(warm.dcs.drop(1), warm.space)
      if (!gateOk) failed += 1
      println(s"gate self-test: ${warm.dcs.size} DCs accepted=${isCorrect(warm.dcs, warm.space)}, " +
        s"one DC dropped rejected=$gateOk")

      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      def timeLeft: Double = (deadline - System.nanoTime()) / 1e9
      val ops = ArrayBuffer.empty[Op]
      val traced = ArrayBuffer.empty[Trace.Traced]
      def tracedOp(): Unit = {
        attempted += 1
        try {
          val t = Trace.run(spark, df, cfg, traced.size)
          if (isCorrect(t.dcs, t.space)) traced += t else failed += 1
        } catch {
          case NonFatal(e) => Console.err.println(s"[adcbench] traced run failed: $e"); failed += 1
        }
      }
      val iterS = ArrayBuffer.empty[Double]
      // Closed loop: start another iteration only while it is expected to
      // end inside the window; untraced runs measure at least two calls.
      val minIterations = if (trace) 1 else 2
      while (iterS.size < minIterations || median(iterS.toSeq) <= timeLeft) {
        val t0 = System.nanoTime()
        // Traced runs alternate which call goes first, so that warm-up drift
        // does not favour either side of untraced.s.
        val tracedFirst = trace && iterS.size % 2 == 1
        if (tracedFirst) tracedOp()
        mineOp().foreach(ops += _)
        if (trace && !tracedFirst) tracedOp()
        iterS += (System.nanoTime() - t0) / 1e9
      }

      val mineS = median(ops.map(_.wallS).toSeq)
      println(f"mine_s median $mineS%.3f s over ${ops.size} ops " +
        ops.map(o => f"${o.wallS}%.2f").mkString("[", " ", "]") + f"; setup_s ${median(setupTimes.toSeq)}%.3f s")
      println(s"error_rate ${failed.toDouble / attempted} ($failed failed / $attempted attempted)")

      val metrics: Map[String, (Double, String)] =
        if (!trace) Map(
          "mine_s" -> (mineS -> "s"),
          "mine_cpu_s" -> (median(ops.map(_.cpuS).toSeq) -> "s"),
          "setup_s" -> (median(setupTimes.toSeq) -> "s"),
        )
        else {
          listener.drain(spark.sparkContext)
          val layerRuns = traced.map(Trace.withTaskTotals(_, listener))
          val layer = layerRuns.head.keys.map(k => k -> median(layerRuns.map(_(k)).toSeq)).toMap
          def unitOf(k: String): String = k.split('.').last match {
            case "mpairs_per_s" => "Mpairs/s"
            case "nodes_per_s" => "1/s"
            case x if x.endsWith("_s") || x == "s" => "s"
            case x if x.endsWith("mb") => "MB"
            case _ => "count"
          }
          val untraced = mineS - median(layerRuns.map(_("layers.s")).toSeq)
          (layer - "layers.s").map { case (k, v) => k -> (v -> unitOf(k)) } ++ Map(
            "jvm.gc_s" -> (median(ops.map(_.gcS).toSeq) -> "s"),
            "untraced.s" -> (untraced -> "s"),
          )
        }

      val environment = env(spark, opts) ++
        Map("pool" -> pool, "data_seed" -> dataSeed, "sample_seed" -> sampleSeed)
      val result = Map(
        "correct" -> (failed == 0),
        "attempted" -> attempted,
        "failed" -> failed,
        "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
      )
      opts.get("results").foreach { path =>
        val full = result ++ Map(
          "workload" -> w.name, "trace" -> trace, "seconds" -> seconds, "env" -> environment,
          "mine_samples_s" -> ops.map(_.wallS).toSeq, "setup_samples_s" -> setupTimes.toSeq)
        Files.createDirectories(Paths.get(path).toAbsolutePath.getParent)
        Files.write(Paths.get(path), (json(full) + "\n").getBytes(UTF_8))
      }
      println("env " + json(environment))
      println(json(result))
    } finally {
      spark.stop()
    }
  }
}
