package loombench

import java.sql.DriverManager
import scala.collection.mutable
import repro.core.{LoomPartitioner, MotifMatcher}
import repro.core.Model._
import repro.engine.{ExperimentRunner, IptEvaluator, PatternMatcher}
import repro.engine.IptEvaluator.WorkloadIpt

/** The traced run: spans around each call into a layer, from outside the
  * program, and the per-layer metrics derived from them.
  */
object Traced {

  /** Untraced passes per partitioner in the traced run; Loom makes as many
    * traced passes, alternating with the untraced ones.
    */
  val Passes = 3

  def run(p: Prepared, setup: Setup, checks: Checks, tracer: Tracer,
          counters: SparkCounters): Vector[Metric] = {
    // Each pass follows a full GC, so no pass pays for the previous one's
    // garbage. A partitioner's time is its fastest pass: interference from
    // outside the JVM only ever adds time (see README.md).
    def pass(s: String): ExperimentRunner.PartitionRun = {
      System.gc()
      val r = tracer.span(s"partition.$s")(p.partition(s))
      checks.partitionMap(s, r.pmap, p.vertices, p.k)
      r
    }
    val fastest = Vector("Hash", "LDG", "Fennel").map { s =>
      s -> (1 to Passes).map(_ => pass(s).msPer10k).min
    }.toMap

    val untraced = mutable.ArrayBuffer.empty[ExperimentRunner.PartitionRun]
    val traced   = mutable.ArrayBuffer.empty[LoomTrace]
    (1 to Passes).foreach { _ =>
      untraced += pass("Loom")
      System.gc()
      val t = tracedLoom(p, tracer)
      checks.partitionMap("Loom", t.loom.state.toMap, p.vertices, p.k)
      checks.check(t.coverage >= MinCoverage && t.coverage <= 1.0,
        f"Loom per-path add times plus finish cover ${100 * t.coverage}%.1f%% of the traced pass")
      traced += t
    }
    val lt       = traced.minBy(_.passMs)
    val loom     = lt.loom
    val loomMs   = untraced.map(_.msPer10k).min
    val overhead = 100.0 * (lt.passMs * 1e4 / p.stream.size / loomMs - 1.0)
    Console.err.println(f"[perfbench] traced Loom pass ${lt.passMs}%.1f ms; per-path adds + finish " +
                        f"cover ${100 * lt.coverage}%.2f%%")

    val rp = tracer.span("matcher.replay")(replay(p))
    checks.check(rp.nonMotifEdges == loom.ldgEdges,
      s"replay saw ${rp.nonMotifEdges} non-motif edges, Loom's LDG path took ${loom.ldgEdges}")

    val eng = engine(p, untraced.last.pmap, checks, tracer, counters)

    Vector(
      Metric("graphgen.generate_s", setup("generate_s"), "s"),
      Metric("graphgen.order_s", setup("order_s"), "s"),
      Metric("graphgen.edges", p.m.toDouble, "count"),
      Metric("graphgen.vertices", p.n.toDouble, "count"),
      Metric("tpstry.build_ms", setup("tpstry_build_s") * 1e3, "ms"),
      Metric("tpstry.motifs", p.motifs.motifs.size.toDouble, "count"),
      Metric("partition.loom_ms_per_10k", loomMs, "ms"),
      Metric("partition.fennel_ms_per_10k", fastest("Fennel"), "ms"),
      Metric("partition.hash_ms_per_10k", fastest("Hash"), "ms"),
      Metric("partition.ldg_ms_per_10k", fastest("LDG"), "ms"),
      Metric("loom.nonmotif_ms", lt.nonMotif.sumMs, "ms"),
      Metric("loom.nonmotif_edges", lt.nonMotif.count.toDouble, "count"),
      Metric("loom.insert_ms", lt.insert.sumMs, "ms"),
      Metric("loom.insert_edges", lt.insert.count.toDouble, "count"),
      Metric("loom.evict_ms", lt.evict.sumMs, "ms"),
      Metric("loom.evict_edges", lt.evict.count.toDouble, "count"),
      Metric("loom.finish_ms", lt.finishMs, "ms"),
      Metric("loom.add_p99_us", lt.all.quantileUs(0.99), "us"),
      Metric("loom.evictions", loom.evictions.toDouble, "count"),
      Metric("loom.zero_bid_evictions", loom.zeroBidEvictions.toDouble, "count"),
      Metric("loom.zero_bid_ratio",
             if (loom.evictions == 0) 0.0 else loom.zeroBidEvictions.toDouble / loom.evictions, "ratio"),
      Metric("loom.eo_vertices", loom.eoVertices.toDouble, "count"),
      Metric("loom.match_high_water", lt.matchHighWater.toDouble, "count"),
      Metric("loom.window_high_water", lt.windowHighWater.toDouble, "count"),
      Metric("matcher.insert_us", rp.insert.sumNs / 1e3 / math.max(1, rp.insert.count), "us"),
      Metric("matcher.matches_containing_us",
             rp.containing.sumNs / 1e3 / math.max(1, rp.containing.count), "us"),
      Metric("matcher.remove_edges_us", rp.remove.sumNs / 1e3 / math.max(1, rp.remove.count), "us"),
      Metric("matcher.matches_created", rp.created.toDouble, "count"),
      Metric("matcher.me_mean", rp.meSum.toDouble / math.max(1, rp.containing.count), "count"),
      Metric("engine.evaluate_s", eng.evaluateS, "s"),
      Metric("engine.match_s", eng.matchS, "s"),
      Metric("engine.matches", eng.matches.toDouble, "count"),
      Metric("engine.match_share", eng.matchS / eng.evaluateS, "ratio"),
      Metric("engine.spark_jobs", eng.jobs, "count"),
      Metric("engine.spark_tasks", eng.tasks, "count"),
      Metric("engine.shuffle_bytes", eng.shuffleBytes, "bytes"),
      Metric("tracing.overhead_pct", overhead, "%"),
    )
  }

  /** Share of a traced Loom pass that its per-path `add` times and `finish`
    * must cover; the rest is the loop's own bookkeeping.
    */
  val MinCoverage = 0.9

  /** One traced Loom pass: every `add` timed and classed by the path it took. */
  final class LoomTrace(val loom: LoomPartitioner) {
    val nonMotif, insert, evict, all = new PathStats
    var finishMs: Double    = 0.0
    var passMs: Double      = 0.0
    var matchHighWater: Int = 0
    var windowHighWater: Int = 0

    /** Share of the pass covered by the per-path sums and `finish`. */
    def coverage: Double =
      (nonMotif.sumMs + insert.sumMs + evict.sumMs + finishMs) / passMs
  }

  /** A Loom pass driven edge by edge. An `add` that advanced Loom's
    * `ldgEdges` counter took the non-motif (immediate LDG) path; one that
    * advanced `evictions` evicted before inserting; the rest only inserted.
    */
  def tracedLoom(p: Prepared, tracer: Tracer): LoomTrace = {
    val loom = p.loom()
    val t = new LoomTrace(loom)
    tracer.spanWith("loom.pass") { attrs =>
      val t0 = System.nanoTime()
      val it = p.stream.iterator
      while (it.hasNext) {
        val e   = it.next()
        val l0  = loom.ldgEdges
        val ev0 = loom.evictions
        val a   = System.nanoTime()
        loom.add(e)
        val ns  = System.nanoTime() - a
        val path =
          if (loom.ldgEdges != l0) t.nonMotif
          else if (loom.evictions != ev0) t.evict
          else t.insert
        path.record(ns); t.all.record(ns)
        val mc = loom.matcher.matchCount
        if (mc > t.matchHighWater) t.matchHighWater = mc
        val ws = loom.matcher.windowSize
        if (ws > t.windowHighWater) t.windowHighWater = ws
      }
      val f0 = System.nanoTime()
      loom.finish()
      val f1 = System.nanoTime()
      t.finishMs = (f1 - f0) / 1e6
      t.passMs   = (f1 - t0) / 1e6
      attrs ++= Seq("nonmotif_ms" -> t.nonMotif.sumMs, "nonmotif_edges" -> t.nonMotif.count.toDouble,
                    "insert_ms" -> t.insert.sumMs, "insert_edges" -> t.insert.count.toDouble,
                    "evict_ms" -> t.evict.sumMs, "evict_edges" -> t.evict.count.toDouble,
                    "finish_ms" -> t.finishMs)
    }
    t
  }

  /** Outcome of a [[MotifMatcher]] replay over the stream's motif edges. */
  final class Replay {
    val insert, containing, remove = new PathStats
    var created: Long       = 0L
    var meSum: Long         = 0L
    var nonMotifEdges: Long = 0L
  }

  /** Drive a fresh matcher with the stream's motif edges. At capacity, evict
    * the oldest edge: look up its matches and remove all of their edges.
    * (Loom removes only the rationed prefix of matches, so these figures
    * compare only with other replays.)
    */
  def replay(p: Prepared): Replay = {
    val mm = new MotifMatcher(p.motifs)
    val r  = new Replay
    def evictOldest(): Unit = {
      val old = mm.oldestEdge.get
      val a   = System.nanoTime()
      val ms  = mm.matchesContaining(old)
      r.containing.record(System.nanoTime() - a)
      r.meSum += ms.size
      val es = ms.iterator.flatMap(_.edges).toSet + old
      val b  = System.nanoTime()
      mm.removeEdges(es)
      r.remove.record(System.nanoTime() - b)
    }
    p.stream.foreach { e =>
      mm.singleEdgeMotif(e) match {
        case None => r.nonMotifEdges += 1
        case Some(node) =>
          if (mm.windowSize >= p.window) evictOldest()
          val a = System.nanoTime()
          r.created += mm.insert(e, node)
          r.insert.record(System.nanoTime() - a)
      }
    }
    while (mm.windowSize > 0) evictOldest()
    r
  }

  final case class Engine(evaluateS: Double, matchS: Double, matches: Long,
                          jobs: Double, tasks: Double, shuffleBytes: Double)

  /** Score Loom's and Hash's maps with `IptEvaluator.evaluate`, re-run the
    * matching alone with `PatternMatcher.matches`, and cross-check Loom's
    * per-query ipt against DuckDB running `PatternMatcher.countSql`.
    */
  def engine(p: Prepared, loomMap: Map[VId, Int], checks: Checks, tracer: Tracer,
             counters: SparkCounters): Engine = {
    val hashMap = p.partition("Hash").pmap
    val evals = Vector("Loom" -> loomMap, "Hash" -> hashMap).map { case (s, pm) =>
      val ((res, c), secs) = Stats.timed(counters.measure(s"evaluate-$s") {
        tracer.span("engine.evaluate")(IptEvaluator.evaluate(p.spark, p.edges, pm, p.workload))
      })
      (res, c, secs)
    }
    val (matchCounts, matchS) = Stats.timed(p.workload.queries.map { case (q, _) =>
      tracer.span("engine.match")(PatternMatcher.matches(p.edges, q).count())
    })
    val totals = evals.map(_._1.totalMatches)
    checks.operation("engine.evaluate", Seq(
      s"match totals differ: $totals vs matches() ${matchCounts.sum}"
    ).filter(_ => totals.distinct.size != 1 || totals.head != matchCounts.sum || totals.head <= 0))
    checks.operation("duckdb cross-check",
      tracer.span("oracle.duckdb")(duckCheck(p, loomMap, evals.head._1)))
    Engine(
      evaluateS    = Stats.median(evals.map(_._3)),
      matchS       = matchS,
      matches      = matchCounts.sum,
      jobs         = Stats.median(evals.map(_._2.jobs.toDouble)),
      tasks        = Stats.median(evals.map(_._2.tasks.toDouble)),
      shuffleBytes = Stats.median(evals.map(_._2.shuffleBytes.toDouble)),
    )
  }

  /** For each query, DuckDB's `(embeddings, ipt)` from `countSql` counts
    * every distinct match once per label-preserving automorphism, so
    * `ipt_sql × matches == ipt × embeddings` holds exactly.
    */
  def duckCheck(p: Prepared, pmap: Map[VId, Int], res: WorkloadIpt): Seq[String] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute("CREATE TABLE edges (u BIGINT, ul VARCHAR, v BIGINT, vl VARCHAR)")
      st.execute("CREATE TABLE pmap (vid BIGINT, pid INTEGER)")
      val duck = conn.unwrap(classOf[org.duckdb.DuckDBConnection])
      val ea   = duck.createAppender(org.duckdb.DuckDBConnection.DEFAULT_SCHEMA, "edges")
      p.stream.foreach { e =>
        ea.beginRow(); ea.append(e.u); ea.append(e.uLabel); ea.append(e.v); ea.append(e.vLabel); ea.endRow()
      }
      ea.close()
      val pa = duck.createAppender(org.duckdb.DuckDBConnection.DEFAULT_SCHEMA, "pmap")
      pmap.foreach { case (v, pid) => pa.beginRow(); pa.append(v); pa.append(pid); pa.endRow() }
      pa.close()
      p.workload.queries.zipWithIndex.flatMap { case ((q, _), i) =>
        val rs = st.executeQuery(PatternMatcher.countSql(q))
        rs.next()
        val (emb, iptSql) = (rs.getLong(1), rs.getLong(2))
        rs.close()
        val qi = res.perQuery(i)
        if (BigInt(iptSql) * qi.matchCount == BigInt(qi.ipt) * emb && (emb == 0) == (qi.matchCount == 0))
          None
        else Some(s"query $i: duckdb embeddings=$emb ipt=$iptSql, spark matches=${qi.matchCount} ipt=${qi.ipt}")
      }
    } finally conn.close()
  }
}
