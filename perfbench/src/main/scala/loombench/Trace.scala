package loombench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** Order statistics over a sample of measurements. */
object Stats {

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(s.size - 1, lo + 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Wall time of `f` in seconds, with its result. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

/** Sum, count and all samples (ns) of one code path, so that per-edge calls
  * are aggregated instead of recorded as one span each.
  */
final class PathStats {
  private val samples = mutable.ArrayBuilder.make[Long]
  var sumNs: Long = 0L
  var count: Long = 0L

  def record(ns: Long): Unit = { samples += ns; sumNs += ns; count += 1 }

  def sumMs: Double = sumNs / 1e6

  /** Quantile of the recorded durations, in microseconds. */
  def quantileUs(q: Double): Double = {
    val s = samples.result()
    if (s.isEmpty) 0.0 else Stats.quantile(s.toIndexedSeq.map(_ / 1e3), q)
  }
}

/** One recorded span: a named interval on the driver thread. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long,
                      attrs: Map[String, Double]) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run. Spans nest on the single
  * driver thread; they are written out once, when the run ends.
  */
final class Tracer(val runId: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0

  /** Run `f` inside a span named `name`. */
  def span[A](name: String)(f: => A): A = spanWith(name)(_ => f)

  /** As [[span]], but `f` receives a map it can fill with counters. */
  def spanWith[A](name: String)(f: mutable.Map[String, Double] => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val attrs = mutable.LinkedHashMap.empty[String, Double]
    val t0 = System.nanoTime()
    try f(attrs)
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans += Span(id, name, parent, t0, t1, attrs.toMap)
    }
  }

  def all: Vector[Span] = spans.toVector.sortBy(_.id)

  /** Self time per span name (ms): a span's duration minus the time its
    * child spans cover, summed over every span of that name. Children on the
    * one driver thread never overlap, so their durations add up.
    */
  def selfTimesMs: Vector[(String, Double)] = {
    val childNs = all.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durationNs).sum }
    val byName  = mutable.LinkedHashMap.empty[String, Double]
    all.foreach { s =>
      val self = (s.durationNs - childNs.getOrElse(s.id, 0L)) / 1e6
      byName(s.name) = byName.getOrElse(s.name, 0.0) + self
    }
    byName.toVector
  }

  /** Write the spans as JSON lines, one per span, plus self-time lines. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val pw = new PrintWriter(file)
    try {
      all.foreach { s =>
        val attrs = s.attrs.map { case (k, v) => s"${Json.str(k)}: ${Json.num(v)}" }.mkString(", ")
        pw.println(s"""{"run": ${Json.str(runId)}, "id": ${s.id}, "parent": ${s.parent}, """ +
                   s""""name": ${Json.str(s.name)}, "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, """ +
                   s""""attrs": {$attrs}}""")
      }
      selfTimesMs.foreach { case (n, ms) =>
        pw.println(s"""{"run": ${Json.str(runId)}, "self_ms": ${Json.num(ms)}, "name": ${Json.str(n)}}""")
      }
    } finally pw.close()
  }
}

/** Minimal JSON rendering for the result line and trace files. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) sys.error(s"non-finite metric value $x")
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else x.toString
}
