package repro.cmpbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{CmpbenchBridge, SparkContext, Success => TaskSuccess}
import org.apache.spark.scheduler._

/** One traced interval. Times are epoch nanoseconds; `parent` 0 is a root. */
final case class Span(id: Long, name: String, parent: Long, query: Int, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
  def json: String =
    s"""{"id":$id,"name":"$name","parent":$parent,"query":$query,"start_ns":$startNs,"end_ns":$endNs}"""
}

/** Task metrics summed over the Spark jobs a layer call launched. */
final class TaskCounters {
  var tasks = 0L
  var failedTasks = 0L
  var cpuNs = 0L
  var runMs = 0L
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  var resultBytes = 0L
}

/** Spans around the benchmark's calls into each layer, plus Spark job and
  * stage spans from a listener, each parented to the layer span that
  * launched it. The launching span travels to the listener as a Spark local
  * property, so attribution survives the listener bus's asynchrony. Spans are
  * kept in memory and written out once by the caller.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  // Epoch offset for System.nanoTime, so layer spans and Spark's
  // millisecond event times share one clock.
  private val anchorNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private val ids = new AtomicLong(1)
  private val recorded = new java.util.concurrent.ConcurrentLinkedQueue[Span]()
  private val counters = new ConcurrentHashMap[Long, TaskCounters]()
  private var current = 0L

  def nowNs: Long = System.nanoTime() + anchorNs
  def spans: Seq[Span] = recorded.asScala.toSeq
  def countersOf(span: Span): TaskCounters = counters.getOrDefault(span.id, new TaskCounters)

  /** Run `body` inside a span named `name`, child of the innermost open span. */
  def span[T](name: String, query: Int)(body: => T): (T, Span) = {
    val id = ids.getAndIncrement()
    val parent = current
    val prevProp = sc.getLocalProperty(SpanProperty)
    sc.setLocalProperty(SpanProperty, s"$id:$query")
    current = id
    val start = nowNs
    try {
      val r = body
      val s = Span(id, name, parent, query, start, nowNs)
      recorded.add(s)
      (r, s)
    } finally {
      current = parent
      sc.setLocalProperty(SpanProperty, prevProp)
    }
  }

  /** Block until the listener has seen every event posted so far. */
  def drain(): Unit = CmpbenchBridge.waitUntilEmpty(sc)

  private val listener = new SparkListener {
    private val jobSpan = new ConcurrentHashMap[Int, (Long, Long, Int, Long)]() // job -> (span id, layer, query, start)
    private val stageLayer = new ConcurrentHashMap[Int, (Long, Long, Int)]()    // stage -> (job span, layer, query)

    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty))).foreach { prop =>
        val Array(layer, query) = prop.split(':').map(_.toLong)
        val id = ids.getAndIncrement()
        jobSpan.put(e.jobId, (id, layer, query.toInt, e.time * 1000000L))
        e.stageIds.foreach(s => stageLayer.put(s, (id, layer, query.toInt)))
      }

    override def onJobEnd(e: SparkListenerJobEnd): Unit =
      Option(jobSpan.remove(e.jobId)).foreach { case (id, layer, query, start) =>
        recorded.add(Span(id, s"spark.job.${e.jobId}", layer, query, start, e.time * 1000000L))
      }

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
      val info = e.stageInfo
      for ((jobId, _, query) <- Option(stageLayer.get(info.stageId));
           start <- info.submissionTime; end <- info.completionTime)
        recorded.add(Span(ids.getAndIncrement(), s"spark.stage.${info.stageId}", jobId, query,
          start * 1000000L, end * 1000000L))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      Option(stageLayer.get(e.stageId)).foreach { case (_, layer, _) =>
        val c = counters.computeIfAbsent(layer, _ => new TaskCounters)
        c.synchronized {
          c.tasks += 1
          if (e.reason != TaskSuccess) c.failedTasks += 1
          Option(e.taskMetrics).foreach { m =>
            c.cpuNs += m.executorCpuTime
            c.runMs += m.executorRunTime
            c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
            c.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
            c.resultBytes += m.resultSize
          }
        }
      }
  }
  sc.addSparkListener(listener)
}

object Tracer {
  val SpanProperty = "cmpbench.span"

  /** Length of the union of `children`'s intervals, clipped to `parent`. */
  def coveredNs(parent: Span, children: Seq[Span]): Long = {
    val iv = children.map(c => (math.max(c.startNs, parent.startNs), math.min(c.endNs, parent.endNs)))
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    iv.foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** A span's duration minus the part of it its child spans cover. */
  def selfNs(span: Span, all: Seq[Span]): Long =
    span.durNs - coveredNs(span, all.filter(_.parent == span.id))

  /** Indented span tree with self times, for the run log. */
  def render(root: Span, all: Seq[Span]): Seq[String] = {
    val kids = all.groupBy(_.parent)
    val out = mutable.ArrayBuffer.empty[String]
    def walk(s: Span, depth: Int): Unit = {
      out += f"${"  " * depth}${s.name}%-28s total ${s.durNs / 1e9}%.4f s  self ${selfNs(s, all) / 1e9}%.4f s"
      kids.getOrElse(s.id, Nil).sortBy(_.startNs).foreach(walk(_, depth + 1))
    }
    walk(root, 0)
    out.toSeq
  }
}
