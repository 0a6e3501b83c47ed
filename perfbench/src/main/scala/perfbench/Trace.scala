package perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageSubmitted, SparkListenerTaskEnd}

/** One timed region around a call into a layer. ``parent`` is the id of the
  * enclosing span, or -1 at the top.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Span recorder. Spans are kept in memory and written once at the end of
  * a run. While a span is open, the Spark job group is [[group]] of its
  * name, so [[LayerListener]] can attribute the stage work it causes to it.
  */
final class Tracer(sc: Option[SparkContext]) {
  // Job groups outlive a tracer in the SparkContext's status tracker, so
  // each tracer uses its own.
  private val prefix = s"perfbench-${Tracer.instances.incrementAndGet()}/"
  private val done = ArrayBuffer.empty[Span]
  private var stack: List[(Int, String, Long)] = Nil
  private var nextId = 0

  def span[T](name: String)(f: => T): T = {
    val id = nextId
    nextId += 1
    stack = (id, name, System.nanoTime()) :: stack
    setGroup(name)
    try f
    finally {
      val (_, _, start) = stack.head
      stack = stack.tail
      done += Span(id, stack.headOption.map(_._1).getOrElse(-1), name, start, System.nanoTime())
      stack.headOption match {
        case Some((_, parentName, _)) => setGroup(parentName)
        case None => sc.foreach(_.clearJobGroup())
      }
    }
  }

  private def setGroup(name: String): Unit =
    sc.foreach(_.setJobGroup(group(name), name, interruptOnCancel = false))

  /** The job group of spans named ``name``. */
  def group(name: String): String = prefix + name

  def spans: Seq[Span] = done.sortBy(_.id).toSeq

  /** Every job group a span has set. */
  def groups: Set[String] = done.map(s => group(s.name)).toSet
}

object Tracer {
  private val instances = new java.util.concurrent.atomic.AtomicInteger()

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (overlapping children are counted once).
    */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curStart = Long.MinValue
      var curEnd = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curEnd) {
          if (curEnd > curStart) covered += curEnd - curStart
          curStart = a; curEnd = b
        } else curEnd = math.max(curEnd, b)
      }
      if (curEnd > curStart) covered += curEnd - curStart
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }
}

/** Task totals of one layer, summed over every task of every stage whose
  * job ran under the layer's job group.
  */
final class LayerTotals {
  var taskS, gcS, schedWaitS: Double = 0.0
  var tasks: Long = 0L
  var shuffleReadBytes, shuffleWriteBytes, spillBytes: Long = 0L
}

/** Attributes stage work to the job group (the innermost open span) it
  * ran under. ``schedWaitS`` is the time each task waited between its
  * stage's submission and its own launch, that is, for a free core.
  */
final class LayerListener extends SparkListener {
  /** Local property that ``SparkContext.setJobGroup`` sets. */
  private val JobGroupProperty = "spark.jobGroup.id"
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val stageSubmitted = new ConcurrentHashMap[Int, Long]()
  private val totals = mutable.Map.empty[String, LayerTotals]
  private val endedJobs = ConcurrentHashMap.newKeySet[Int]()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(JobGroupProperty)))
    group.foreach(g => stageGroup.put(e.stageInfo.stageId, g))
    stageSubmitted.put(e.stageInfo.stageId, e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis()))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val group = stageGroup.get(e.stageId)
    val m = e.taskMetrics
    if (group != null && m != null) totals.synchronized {
      val t = totals.getOrElseUpdate(group, new LayerTotals)
      t.tasks += 1
      t.taskS += m.executorRunTime / 1e3
      t.gcS += m.jvmGCTime / 1e3
      val submitted = stageSubmitted.getOrDefault(e.stageId, e.taskInfo.launchTime)
      t.schedWaitS += math.max(0L, e.taskInfo.launchTime - submitted) / 1e3
      t.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.spillBytes += m.diskBytesSpilled
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.add(e.jobId)

  /** Wait until every job of ``groups`` has reached this listener. Events
    * of one listener arrive in order, so a job's end follows its tasks.
    */
  def drain(sc: SparkContext, groups: Set[String], timeoutMs: Long = 30000L): Unit = {
    val ids = groups.toSeq.flatMap(g => sc.statusTracker.getJobIdsForGroup(g).toSeq)
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!ids.forall(endedJobs.contains) && System.currentTimeMillis() < deadline) Thread.sleep(10)
    require(ids.forall(endedJobs.contains), "Spark listener events did not arrive within the timeout")
  }

  def totalsFor(group: String): LayerTotals = totals.synchronized {
    totals.getOrElse(group, new LayerTotals)
  }
}
