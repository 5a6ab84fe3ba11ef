package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model._
import repro.core.{EqualOpportunism, LoomPartitioner, Signature, TPSTry}
import repro.graphgen.{Dataset, StreamOrder}
import repro.partition._

import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

/** Harness for the paper's experiments: stream a dataset in a given order
  * through each partitioner, then execute the dataset's workload over the
  * resulting partitioning and count ipt (§5.1).
  */
object ExperimentRunner {

  /** Names of the four compared systems, in the paper's presentation order. */
  val Systems: Vector[String] = Vector("Hash", "LDG", "Fennel", "Loom")

  /** One partitioning run's outcome. */
  final case class PartitionRun(system: String, pmap: Map[VId, Int],
                                elapsedMs: Double, edges: Long,
                                imbalance: Double) {
    /** ms per 10k edges, the paper's Table 2 unit. */
    def msPer10k: Double = if (edges == 0) 0 else elapsedMs * 10000.0 / edges
  }

  /** One (dataset, order, system, k) quality measurement. When
    * [[compareSystems]] builds its own weight table, `msPer10k` is wall time
    * measured while Spark builds that table on the same machine; the Table 2
    * figures come from [[partition]] run alone.
    */
  final case class IptRow(dataset: String, order: String, system: String, k: Int,
                          weightedIpt: Double, matches: Long, imbalance: Double,
                          msPer10k: Double)

  /** Build a partitioner by name. Loom derives its TPSTry++ from the
    * workload with the paper's default support threshold (40%).
    */
  def makePartitioner(system: String, k: Int, n: Long, m: Long,
                      workload: Workload, windowSize: Int,
                      supportThreshold: Double = 0.4,
                      p: Int = Signature.DefaultP,
                      labelSeed: Long = 42L): StreamingPartitioner = system match {
    case "Hash"   => new HashPartitioner(k, n)
    case "LDG"    => new LdgPartitioner(k, n)
    case "Fennel" => new FennelPartitioner(k, n, m)
    case "Loom" =>
      implicit val coder: Signature.LabelCoder = new Signature.LabelCoder(p, labelSeed)
      val trie = TPSTry.ofWorkload(workload)
      new LoomPartitioner(k, n, trie.motifIndex(supportThreshold), windowSize,
                          EqualOpportunism.Params())
    case other => sys.error(s"unknown system $other")
  }

  /** Stream `stream` through a fresh `system` partitioner; returns the map,
    * wall time, and final imbalance.
    */
  def partition(system: String, stream: Vector[LEdge], k: Int, n: Long, m: Long,
                workload: Workload, windowSize: Int,
                supportThreshold: Double = 0.4): PartitionRun = {
    val part  = makePartitioner(system, k, n, m, workload, windowSize, supportThreshold)
    val start = System.nanoTime()
    stream.foreach(part.add)
    part.finish()
    val elapsed = (System.nanoTime() - start) / 1e6
    PartitionRun(system, part.state.toMap, elapsed, stream.size,
                 part.state.imbalance)
  }

  /** Distinct vertex/edge counts of a collected stream. */
  def graphStats(stream: Vector[LEdge]): (Long, Long) = {
    val vs = stream.iterator.flatMap(e => Iterator(e.u, e.v)).toSet
    (vs.size.toLong, stream.size.toLong)
  }

  /** Run all four systems over one (dataset, order, k) and measure ipt.
    * `weights` is the weight table of (`edgesDf`, `workload`) when the caller
    * already has it (sweeps over orders, k or windows share one). Otherwise
    * it is built here, once for all systems, in a `Future` started before
    * the stream is ordered: ordering and partitioning run on the calling
    * thread while Spark builds the table, which is awaited only to score.
    * An exception from the build is rethrown here by `Await.result`. If the
    * calling thread fails first, its exception propagates at once and the
    * in-flight build is left to finish in the background; its table, or
    * its error, is dropped.
    */
  def compareSystems(spark: SparkSession, dataset: Dataset, edgesDf: DataFrame,
                     order: StreamOrder.Order, workload: Workload, k: Int,
                     windowSize: Int, systems: Vector[String] = Systems,
                     seed: Long = 11L,
                     weights: Option[IptEvaluator.EdgeWeights] = None): Vector[IptRow] = {
    val table = weights match {
      case Some(t) =>
        require(t.workload == workload, "the weight table was built for another workload")
        Future.successful(t)
      case None =>
        Future(IptEvaluator.edgeWeights(edgesDf, workload))(ExecutionContext.global)
    }
    val stream = StreamOrder.stream(edgesDf, order, seed)
    val (n, m) = graphStats(stream)
    val runs = systems.map(sys => partition(sys, stream, k, n, m, workload, windowSize))
    val scorer = Await.result(table, Duration.Inf)
    runs.map { run =>
      val res = scorer.score(run.pmap)
      IptRow(dataset.name, order.name, run.system, k, res.totalWeightedIpt,
             res.totalMatches, run.imbalance, run.msPer10k)
    }
  }

  /** Format ipt rows relative to the Hash baseline (the paper's Fig. 7/8
    * presentation: ipt as a percentage of Hash's ipt).
    */
  def relativeToHash(rows: Vector[IptRow]): Vector[(IptRow, Double)] = {
    val hash = rows.find(_.system == "Hash")
      .getOrElse(sys.error("relativeToHash needs a Hash row"))
    rows.map(r =>
      r -> (if (hash.weightedIpt == 0) 100.0 else 100.0 * r.weightedIpt / hash.weightedIpt))
  }
}
