package perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo

import scala.jdk.CollectionConverters._

/** Peak heap in use right after a garbage collection, since the last reset.
  *
  * This is the most live data the program held at once, as far as the
  * collections saw it. The peak of heap in use before collection would
  * mostly measure how large the collector let the young generation grow,
  * which varies from run to run.
  */
object Heap {
  @volatile private var peakBytes = 0L

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.valuesIterator.map(_.getUsed).sum
        Heap.synchronized { if (used > peakBytes) peakBytes = used }
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _                      => ()
  }

  def resetPeaks(): Unit = Heap.synchronized { peakBytes = 0 }

  def peakMb: Double = peakBytes / (1024.0 * 1024.0)
}
