package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.synth.Proxies

/** Shared SparkSession bootstrap + CLI parsing for the table jobs.
  *
  * Usage from every job: ``spark-submit --class repro.jobs.TableNJob
  * repro-jobs.jar [proxyName ...]`` — with no args the full 10-proxy
  * evaluation runs; with args only the named proxies run.
  */
object JobSession {
  def session(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def specs(args: Array[String]): Seq[Proxies.Spec] =
    if (args.isEmpty) Proxies.all else args.toSeq.map(Proxies.byName)
}
