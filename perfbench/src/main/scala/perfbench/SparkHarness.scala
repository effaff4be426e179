package perfbench

import java.nio.file.Path

import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spark work done since the last `reset`, as seen by a listener. */
final class SparkCounters extends SparkListener {
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var shuffleWriteBytes = 0L
  @volatile var executorCpuNs = 0L
  @volatile var gcMs = 0L

  def reset(): Unit = synchronized {
    jobs = 0; tasks = 0; shuffleWriteBytes = 0; executorCpuNs = 0; gcMs = 0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      executorCpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
    }
  }
}

/** One local Spark session per set-up, with its scratch space inside the
  * benchmark's build directory.
  */
object SparkHarness {

  /** Local worker threads: at most four, and no more than the machine has. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def start(scratch: Path): (SparkSession, SparkCounters) = {
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("clx-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", scratch.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", scratch.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    (spark, counters)
  }

  def drain(spark: SparkSession): Unit = ListenerDrain(spark.sparkContext)
}
