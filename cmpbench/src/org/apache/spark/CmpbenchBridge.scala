package org.apache.spark

/** Access to Spark's `private[spark]` listener bus: the benchmark waits for
  * it to drain so a layer's task metrics are complete before they are read.
  */
object CmpbenchBridge {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
