package org.apache.spark

/** Waits until Spark has delivered every queued listener event, so that the
  * counters of a listener are complete when they are read. The listener bus
  * is package-private to Spark, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
