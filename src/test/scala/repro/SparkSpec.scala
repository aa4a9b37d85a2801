package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd, StageInfo}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** What a listener saw of the Spark jobs that `body` starts: each job's
    * start event and the end events of its tasks, in start order. `body`
    * names the jobs' groups with `setJobGroup`.
    */
  def jobsOf(body: => Unit): Seq[SparkSpec.JobSeen] = {
    val sc = spark.sparkContext
    val jobs = new java.util.concurrent.ConcurrentLinkedQueue[SparkListenerJobStart]
    val tasks = new java.util.concurrent.ConcurrentLinkedQueue[SparkListenerTaskEnd]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.add(e)
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.add(e)
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobGroup("marker", "")
      sc.parallelize(Seq(1)).count()
      // The bus delivers events in order: once the marker job is seen, so are the body's.
      var waits = 0
      while (!jobs.asScala.exists(groupOf(_) == "marker") && waits < 1000) { Thread.sleep(10); waits += 1 }
    } finally { sc.clearJobGroup(); sc.removeSparkListener(listener) }
    val seen = jobs.asScala.toSeq
    assert(seen.exists(groupOf(_) == "marker"), "listener bus did not drain")
    val ended = tasks.asScala.toSeq
    seen.filter(groupOf(_) != "marker").map { j =>
      SparkSpec.JobSeen(groupOf(j), j.stageInfos, ended.filter(t => j.stageIds.contains(t.stageId)))
    }
  }

  /** The job group of every Spark job that `body` starts, in start order. */
  def jobGroupsOf(body: => Unit): Seq[String] = jobsOf(body).map(_.group)

  private def groupOf(e: SparkListenerJobStart): String =
    String.valueOf(e.properties.getProperty("spark.jobGroup.id"))
}

object SparkSpec {
  /** One Spark job as a listener saw it. */
  final case class JobSeen(group: String, stages: Seq[StageInfo], tasks: Seq[SparkListenerTaskEnd])

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
