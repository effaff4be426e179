package org.apache.spark

/** Waits until every queued listener event has been delivered, so that
  * counters read after a Spark job include that job. The listener bus is
  * private to Spark, hence this one-line bridge in Spark's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
