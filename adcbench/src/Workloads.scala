package adcbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.MinerConfig
import repro.data.{AdultData, BenchDataset, TaxData, VoterData}

/** One fixed mining task: a dataset stand-in at a fixed row count and one
  * `MinerConfig`. The benchmark seed only picks the data seed and the sample
  * seed (see [[Workloads.seeds]]).
  */
final case class Workload(
    name: String,
    dataset: BenchDataset,
    rows: Int,
    fName: String,
    epsilon: Double,
    sampleFraction: Double,
    maxDcSize: Int) {

  def config(sampleSeed: Long): MinerConfig =
    MinerConfig(fName = fName, epsilon = epsilon, sampleFraction = sampleFraction,
      seed = sampleSeed, maxDcSize = maxDcSize)

  /** The workload's relation as a cached DataFrame in a fixed number of
    * input partitions. `Sampler.sample` draws per partition, so a fixed
    * partition count keeps the sample, and with it the expected DC set,
    * the same under every Spark master.
    */
  def input(spark: SparkSession, dataSeed: Long): DataFrame = {
    val rdd = spark.sparkContext.parallelize(dataset.rows(rows, dataSeed), Workloads.InputSlices)
    val df = spark.createDataFrame(rdd, dataset.schema).cache()
    df.count()
    df
  }
}

object Workloads {

  /** Input partitions of every workload DataFrame. */
  val InputSlices = 1

  /** Shuffle partitions of the benchmark session. The inputs are well under
    * 1 MB; at the project's default of 64, one Tax mine spends 12-28 s in
    * profiling alone, which does not fit the run budget.
    */
  val ShufflePartitions = 1

  val all: Seq[Workload] = Seq(
    Workload("tax-sample-scan", TaxData, 5000, "f1adj", 0.1, 0.5, 2),
    Workload("adult-enum", AdultData, 150, "f1", 1e-3, 1.0, 2),
    Workload("voter-f3-vios", VoterData, 300, "f3", 0.05, 1.0, 3),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** (data seed, sample seed) of a seed pool. The runner maps the
    * benchmark seed onto a pool, and each pool has a committed expected DC
    * digest in expected.json.
    */
  def seeds(pool: Int): (Long, Long) = (pool.toLong, 100L + pool)

  def session(master: String): SparkSession = {
    val s = SparkSession.builder
      .master(master)
      .appName("adcbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}
