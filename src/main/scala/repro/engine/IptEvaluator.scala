package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Model._
import repro.core.NaiveIso

/** Measures partitioning quality as the paper does (§1.3, §5): the number of
  * inter-partition traversals (ipt) incurred when executing a pattern-match
  * query workload over a partitioned graph.
  *
  * For each query q, every distinct match (automorphism-deduplicated
  * sub-graph) is inspected: each matched data edge whose endpoints live in
  * different partitions costs one ipt. Per-query totals are weighted by the
  * query's relative frequency in the workload.
  *
  * ipt is linear in the per-edge cut flags:
  * Σ_q f_q Σ_{match R of q} Σ_{e∈R} cut(e) = Σ_e cut(e)·w(e), with
  * w(e) = Σ_q f_q·c_q(e), where c_q(e) is the number of distinct matches of q
  * that contain e. The counts depend only on the graph and the workload, so
  * [[edgeWeights]] computes them once with Spark, and [[EdgeWeights.score]]
  * scores any partitioning of that graph with one driver-side loop over the
  * matched edges.
  *
  * The table is counted from embeddings, without deduplicating them into
  * matches: each distinct match of q is the image of exactly |Aut(q)|
  * label-preserving embeddings, and each embedding maps exactly one pattern
  * edge onto each edge of its match, so c_q(e) is the number of
  * embedding-edge incidences at e divided by |Aut(q)|.
  */
object IptEvaluator {

  /** Result for one query of the workload. */
  final case class QueryIpt(queryIndex: Int, frequency: Double,
                            matchCount: Long, ipt: Long) {
    def weightedIpt: Double = frequency * ipt
  }

  /** Result over a whole workload. */
  final case class WorkloadIpt(perQuery: Vector[QueryIpt]) {
    def totalWeightedIpt: Double = perQuery.map(_.weightedIpt).sum
    def totalMatches: Long       = perQuery.map(_.matchCount).sum
  }

  /** The weight table of one (graph, workload): data edge `(xs(i), ys(i))`
    * lies in `counts(q)(i)` distinct matches of the workload's query q. Only
    * edges matched by some query appear.
    */
  final class EdgeWeights(val workload: Workload, private[engine] val xs: Array[VId],
                          private[engine] val ys: Array[VId],
                          private[engine] val counts: Vector[Array[Long]]) {

    /** Distinct matches per query. A match of q holds |E(q)| distinct data
      * edges, so Σ_e c_q(e) = matches·|E(q)|.
      */
    val matchCounts: Vector[Long] = workload.queries.zip(counts).map { case ((q, _), c) =>
      val total = c.sum
      require(total % q.numEdges == 0,
              s"edge-match counts of $q sum to $total, not a multiple of ${q.numEdges}")
      total / q.numEdges
    }

    /** ipt of `pmap`, which must place every vertex of every matched edge. */
    def score(pmap: Map[VId, Int]): WorkloadIpt = {
      def part(v: VId): Int = pmap.getOrElse(v, throw new IllegalArgumentException(
        s"vertex $v lies on a matched edge but has no partition in the map"))
      val ipt = new Array[Long](counts.size)
      var i = 0
      while (i < xs.length) {
        if (part(xs(i)) != part(ys(i))) {
          var q = 0
          while (q < ipt.length) { ipt(q) += counts(q)(i); q += 1 }
        }
        i += 1
      }
      WorkloadIpt(workload.queries.zipWithIndex.map { case ((_, f), q) =>
        QueryIpt(q, f, matchCounts(q), ipt(q))
      })
    }
  }

  /** Build the weight table of `workload` over the edge DataFrame `edges`,
    * which holds each undirected edge once: every query's embeddings are
    * exploded into the canonical data edges their pattern edges map onto,
    * counted per edge and query in one Spark aggregation, and each count is
    * divided by the query's |Aut(q)| (computed on the driver with
    * [[NaiveIso.automorphismCount]]).
    */
  def edgeWeights(edges: DataFrame, workload: Workload): EdgeWeights = {
    val nq   = workload.queries.size
    val auts = workload.queries.map { case (q, _) => NaiveIso.automorphismCount(q) }
    val incidences = workload.queries.zipWithIndex.map { case ((q, _), i) =>
      PatternMatcher.embeddings(edges, q)
        .select(lit(i) as "q", explode(array(PatternMatcher.embeddedEdges(q): _*)) as "e")
        .select(col("q"), col("e.x") as "x", col("e.y") as "y")
    }.reduce(_ union _)
    val perQuery = (0 until nq).map(i => count(when(col("q") === i, true)) as s"c$i")
    val rows = incidences.groupBy("x", "y").agg(perQuery.head, perQuery.tail: _*).collect()
    val counts = Vector.tabulate(nq) { i =>
      rows.map { r =>
        val c = r.getLong(2 + i)
        require(c % auts(i) == 0, s"edge (${r.getLong(0)},${r.getLong(1)}) has $c embedding " +
          s"incidences of ${workload.queries(i)._1}, not a multiple of |Aut(q)| = ${auts(i)}")
        c / auts(i)
      }
    }
    new EdgeWeights(workload, rows.map(_.getLong(0)), rows.map(_.getLong(1)), counts)
  }

  /** ipt of a full workload over a partitioning: build the weight table and
    * score one map. To score several maps of one graph, build the table once
    * with [[edgeWeights]] and call [[EdgeWeights.score]] per map.
    */
  def evaluate(spark: SparkSession, edges: DataFrame, pmap: Map[VId, Int],
               workload: Workload): WorkloadIpt =
    edgeWeights(edges, workload).score(pmap)
}
