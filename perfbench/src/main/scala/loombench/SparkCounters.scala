package loombench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
                                   SparkListenerTaskEnd}

/** Spark work per job group, counted by a listener the benchmark registers:
  * jobs, tasks and shuffle bytes written. Each measured call runs in a job
  * group of its own, so its counters are those of that group.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters.Counts

  private final class Group {
    val jobsStarted = new AtomicLong
    val jobsEnded   = new AtomicLong
    val tasks       = new AtomicLong
    val shuffle     = new AtomicLong
  }

  private val groups       = new ConcurrentHashMap[String, Group]
  private val stageToGroup = new ConcurrentHashMap[Int, String]
  private val jobToGroup   = new ConcurrentHashMap[Int, String]

  private def group(g: String): Group = groups.computeIfAbsent(g, _ => new Group)

  private def groupOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit =
    groupOf(e.properties).foreach { g =>
      group(g).jobsStarted.incrementAndGet()
      jobToGroup.put(e.jobId, g)
      e.stageIds.foreach(s => stageToGroup.put(s, g))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageToGroup.get(e.stageId)).foreach { g =>
      val c = group(g)
      c.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach(m => c.shuffle.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobToGroup.get(e.jobId)).foreach(g => group(g).jobsEnded.incrementAndGet())

  /** Run `f` in job group `g` and return its result with the group's
    * counters. Listener events arrive asynchronously; this waits until the
    * listener has seen the end of every job the status tracker knows for
    * the group (task-end events precede their job's end event).
    */
  def measure[A](g: String)(f: => A): (A, Counts) = {
    sc.setJobGroup(g, g)
    val r =
      try f
      finally sc.clearJobGroup()
    val expected = sc.statusTracker.getJobIdsForGroup(g).length.toLong
    val c        = group(g)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while ((c.jobsEnded.get < expected || c.jobsEnded.get < c.jobsStarted.get) &&
           System.nanoTime() < deadline) Thread.sleep(5)
    (r, Counts(c.jobsEnded.get, c.tasks.get, c.shuffle.get))
  }
}

object SparkCounters {
  final case class Counts(jobs: Long, tasks: Long, shuffleBytes: Long)
}
