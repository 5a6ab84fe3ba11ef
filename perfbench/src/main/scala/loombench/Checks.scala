package loombench

import scala.collection.mutable
import repro.core.LoomPartitioner
import repro.core.Model._
import repro.engine.ExperimentRunner.IptRow

/** Output checks of one benchmark run. Every timed or traced operation is
  * counted as attempted; an operation whose output fails a check is counted
  * as failed, and the failure is reported on stderr.
  */
final class Checks {
  var attempted: Int = 0
  var failed: Int    = 0
  private val problems = mutable.ArrayBuffer.empty[String]
  private val digests  = mutable.LinkedHashMap.empty[String, String]

  def failures: Vector[String] = problems.toVector

  /** Record one operation whose output produced `errors` (empty = passed). */
  def operation(what: String, errors: Seq[String]): Unit = {
    attempted += 1
    if (errors.nonEmpty) {
      failed += 1
      errors.foreach(e => problems += s"$what: $e")
    }
  }

  /** A whole-run check that is not an operation of its own. */
  def check(ok: Boolean, what: => String): Unit =
    if (!ok) problems += what

  /** Digest of each system's map, as first seen in the run. */
  def allDigests: Vector[(String, String)] = digests.toVector

  /** Check one partitioning map of `system`:
    *  - it assigns every stream vertex exactly once, to a partition in [0, k);
    *  - LDG and Fennel stay within their 1.1 capacity: each places a vertex
    *    only on a partition still below 1.1·n/k, so no partition ends more
    *    than one vertex above it (it holds at most ⌈1.1·n/k⌉). Loom's own
    *    capacity rule is checked on its warm-up pass by [[loomPass]];
    *  - its digest equals the digest of the system's earlier passes, so every
    *    later pass has the map that the warm-up pass checked.
    */
  def partitionMap(system: String, pmap: Map[VId, Int], vertices: Set[VId], k: Int): Unit = {
    val errs = mutable.ArrayBuffer.empty[String]
    if (pmap.size != vertices.size || !vertices.forall(pmap.contains))
      errs += s"map covers ${pmap.size} vertices, stream has ${vertices.size}"
    val counts = Array.fill(k)(0L)
    pmap.valuesIterator.foreach { p =>
      if (p < 0 || p >= k) errs += s"partition $p outside [0, $k)" else counts(p) += 1
    }
    if (system == "LDG" || system == "Fennel") {
      val cap = math.max(1.0, Checks.Slack * vertices.size / k)
      if (counts.max > math.ceil(cap)) errs += f"largest partition ${counts.max} exceeds capacity $cap%.1f"
    }
    val d = Checks.digest(pmap)
    digests.get(system) match {
      case Some(prev) if prev != d => errs += s"map digest $d differs from earlier pass $prev"
      case Some(_)                 =>
      case None                    => digests(system) = d
    }
    operation(s"$system partition", errs.distinct.toSeq)
  }

  /** Drive `loom` over `stream` edge by edge and check Loom's own capacity
    * rule (b = 1.1): every allocation goes to a partition still below
    * 1.1·n/k. An allocation is one equal-opportunism round, which hands the
    * whole rationed prefix of the evicted edge's matches to the winner, or
    * one LDG placement. A partition can therefore end up to one
    * round's vertices above the capacity (the repository's own Loom test
    * states the same bound), but never receive vertices once it is full.
    *  - An `add` runs at most one round or places at most two vertices with
    *    LDG, so each partition that grows during it must have been below the
    *    capacity before it.
    *  - `finish` runs many rounds. Each partition that grows during it must
    *    have been below the capacity before it, and ends at most
    *    ⌈1.1·n/k⌉ − 1 + R, where R bounds one round's vertices: the most
    *    unassigned vertices of the matches that contain any one window edge
    *    when `finish` starts (it inserts no matches and assigns no vertex
    *    twice, so no later round can hand out more).
    * Returns the final map; the pass counts as one operation.
    */
  def loomPass(loom: LoomPartitioner, stream: Vector[LEdge], vertices: Set[VId]): Map[VId, Int] = {
    val st     = loom.state
    val k      = st.k
    val cap    = math.max(1.0, Checks.Slack * vertices.size / k)
    val before = new Array[Int](k)
    val errs   = mutable.ArrayBuffer.empty[String]
    def snapshot(): Unit = { var i = 0; while (i < k) { before(i) = st.size(i); i += 1 } }
    def grew(i: Int): Boolean = st.size(i) > before(i)
    def grewWhenFull(where: => String): Unit = {
      var i = 0
      while (i < k) {
        if (grew(i) && before(i) >= cap && errs.size < Checks.MaxReports)
          errs += f"$where: partition $i received vertices at size ${before(i)}, capacity $cap%.1f"
        i += 1
      }
    }
    stream.foreach { e =>
      snapshot()
      loom.add(e)
      grewWhenFull(s"add($e)")
    }
    val mm    = loom.matcher
    val round = mm.windowEdges.iterator.map { e =>
      (mm.matchesContaining(e).iterator.flatMap(_.vertices) ++ Iterator(e.u, e.v))
        .filterNot(st.isAssigned).toSet.size
    }.foldLeft(1)(math.max)
    snapshot()
    loom.finish()
    grewWhenFull("finish")
    val limit = math.ceil(cap).toInt - 1 + round
    (0 until k).filter(i => grew(i) && st.size(i) > limit).foreach { i =>
      errs += s"finish: partition $i ends at ${st.size(i)}, above $limit (capacity + one round of at most $round vertices)"
    }
    operation("Loom capacity", errs.toSeq)
    st.toMap
  }

  /** Check the rows of one `compareSystems` call: the four systems report
    * the same, positive, total match count and a non-negative ipt, and
    * Hash's ipt (the base of every relative figure) is positive.
    */
  def experiment(rows: Vector[IptRow], systems: Vector[String]): Unit = {
    val errs = mutable.ArrayBuffer.empty[String]
    if (rows.map(_.system) != systems) errs += s"systems ${rows.map(_.system)} != $systems"
    val matches = rows.map(_.matches).distinct
    if (matches.size != 1 || matches.head <= 0) errs += s"match counts differ or are zero: $matches"
    if (rows.exists(r => r.weightedIpt.isNaN || r.weightedIpt < 0)) errs += "invalid ipt"
    if (rows.find(_.system == "Hash").forall(_.weightedIpt <= 0)) errs += "Hash ipt is zero"
    operation("compareSystems", errs.toSeq)
  }
}

object Checks {

  /** Capacity slack of LDG, Fennel and Loom (ν = b = 1.1). */
  val Slack = 1.1

  /** Failures of one check reported at most, so a broken rule cannot flood stderr. */
  val MaxReports = 10

  /** Order-independent 64-bit digest of a vertex→partition map. */
  def digest(pmap: Map[VId, Int]): String = {
    var sum = 0L
    var xor = 0L
    pmap.foreach { case (v, p) =>
      val h = mix(v * 31 + p)
      sum += h; xor ^= mix(h)
    }
    f"${sum ^ (xor * 0x9E3779B97F4A7C15L) ^ pmap.size.toLong}%016x"
  }

  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
