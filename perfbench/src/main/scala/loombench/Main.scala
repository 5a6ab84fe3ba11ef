package loombench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model._
import repro.core.{LoomPartitioner, MotifIndex, Signature, TPSTry}
import repro.engine.ExperimentRunner
import repro.engine.ExperimentRunner.IptRow
import repro.graphgen.{Dataset, Datasets, StreamOrder}
import repro.workloads.Workloads

/** One benchmark workload: a Fig. 7 cell (dataset, stream order, window),
  * partitioned 8 ways and scored with the dataset's query workload.
  */
final case class Spec(name: String, dataset: Dataset, order: StreamOrder.Order, window: Int) {
  def workload: Workload = Workloads.forDataset(dataset.name)
}

object Spec {
  val K  = 8
  val Sf = 1.0

  val all: Vector[Spec] = Vector(
    Spec("dblp-bfs-w1k", Datasets.dblp, StreamOrder.Bfs, 1000),
    Spec("musicbrainz-random-w1k", Datasets.musicbrainz, StreamOrder.Random, 1000),
  )

  def byName(n: String): Spec =
    all.find(_.name == n).getOrElse(sys.error(s"unknown workload $n (known: ${all.map(_.name).mkString(", ")})"))
}

/** A metric value with its unit, as printed in the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** Command-line options, all passed by perfbench/run.py (see README.md). */
final case class Options(workload: String, genSeed: Long, orderSeed: Long,
                         seconds: Double, trace: Boolean, outDir: File)

object Options {
  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def arg(k: String): String = kv.getOrElse(k, sys.error(s"--$k is required"))
    Options(arg("workload"), arg("gen-seed").toLong, arg("order-seed").toLong,
            arg("seconds").toDouble, arg("trace") == "1", new File(arg("out")))
  }
}

/** Everything a run has built before its first timed operation. */
final class Prepared(val spec: Spec, val spark: SparkSession, val edges: DataFrame,
                     val orderSeed: Long, val stream: Vector[LEdge], val motifs: MotifIndex) {
  val (n, m)   = ExperimentRunner.graphStats(stream)
  val vertices: Set[VId] = stream.iterator.flatMap(e => Iterator(e.u, e.v)).toSet
  def k: Int      = Spec.K
  def window: Int = spec.window
  def workload: Workload = spec.workload

  def partition(system: String): ExperimentRunner.PartitionRun =
    ExperimentRunner.partition(system, stream, k, n, m, workload, window)

  /** A fresh Loom, built as `ExperimentRunner.partition` builds it, for the
    * passes the benchmark drives edge by edge.
    */
  def loom(): LoomPartitioner =
    ExperimentRunner.makePartitioner("Loom", k, n, m, workload, window).asInstanceOf[LoomPartitioner]
}

/** Seconds spent in each part of the set-up, in order. */
final case class Setup(parts: Vector[(String, Double)]) {
  def seconds: Double            = parts.map(_._2).sum
  def apply(part: String): Double = parts.find(_._1 == part).get._2
}

object Main {

  /** Repetitions of the TPSTry++ build; its set-up share is their median. */
  val TrieReps = 3

  def main(args: Array[String]): Unit = {
    val opt  = Options.parse(args)
    val spec = Spec.byName(opt.workload)
    val tracer = if (opt.trace) Some(new Tracer(s"${spec.name}-g${opt.genSeed}-o${opt.orderSeed}")) else None
    val checks = new Checks
    val (spark, sparkS) = Stats.timed(session(opt.outDir))
    try {
      val (prep, setup) = span(tracer, "setup")(prepare(spec, spark, sparkS, opt, checks, tracer))
      val metrics = tracer match {
        case Some(t) =>
          val counters = new SparkCounters(spark.sparkContext)
          spark.sparkContext.addSparkListener(counters)
          Traced.run(prep, setup, checks, t, counters)
        case None => timedRun(prep, setup, opt, checks)
      }
      tracer.foreach(t => t.write(new File(opt.outDir, s"trace-${t.runId}.jsonl")))
      report(prep, setup, opt, checks, metrics)
    } finally spark.stop()
  }

  def span[A](tracer: Option[Tracer], name: String)(f: => A): A =
    tracer.fold(f)(_.span(name)(f))

  /** Local-mode Spark with at most 4 cores (the partitioners themselves run
    * on the single driver thread). Four shuffle partitions and no adaptive
    * re-planning: on these small inputs both cut the fixed cost of each
    * scoring job by about a third. The partition count is fixed, not tied to
    * the cores, because the random stream order (`orderBy(rand(seed))`)
    * depends on it.
    */
  val ShufflePartitions = 4

  def session(outDir: File): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val local = new File(outDir, "spark").getAbsoluteFile
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("loom-perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.getPath)
      .config("spark.sql.warehouse.dir", new File(local, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.adaptive.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Motif index built exactly as `ExperimentRunner.makePartitioner` builds
    * Loom's (default label coder, support threshold 40%).
    */
  def motifIndex(w: Workload): MotifIndex = {
    implicit val coder: Signature.LabelCoder = new Signature.LabelCoder(Signature.DefaultP, 42L)
    TPSTry.ofWorkload(w).motifIndex(0.4)
  }

  /** Set-up: generate and materialise the dataset, collect the ordered
    * stream, build the TPSTry++ and warm the JIT with one checked pass of each
    * partitioner (Loom's is driven edge by edge to check its capacity rule). The dataset is generated once: a second generation in the
    * same JVM runs with Spark's code generation warm and would hide the cold
    * cost that every run of the experiment pays.
    */
  def prepare(spec: Spec, spark: SparkSession, sparkS: Double, opt: Options,
              checks: Checks, tracer: Option[Tracer]): (Prepared, Setup) = {
    val (edges, genS) = Stats.timed(span(tracer, "graphgen.generate") {
      val df = spec.dataset.generate(spark, Spec.Sf, opt.genSeed).cache()
      df.count()
      df
    })
    val (stream, orderS) = Stats.timed(span(tracer, "graphgen.order") {
      StreamOrder.stream(edges, spec.order, opt.orderSeed)
    })
    val tpsTimes = (1 to TrieReps).map(_ => Stats.timed(span(tracer, "tpstry.build")(motifIndex(spec.workload))))
    val motifs   = tpsTimes.last._1
    val tpsS     = Stats.median(tpsTimes.map(_._2))
    val prep = new Prepared(spec, spark, edges, opt.orderSeed, stream, motifs)
    val (_, warmS) = Stats.timed(span(tracer, "warmup") {
      ExperimentRunner.Systems.foreach { s =>
        val pmap = if (s == "Loom") checks.loomPass(prep.loom(), prep.stream, prep.vertices) else prep.partition(s).pmap
        checks.partitionMap(s, pmap, prep.vertices, prep.k)
      }
    })
    (prep, Setup(Vector("spark_start_s" -> sparkS, "generate_s" -> genS, "order_s" -> orderS,
                        "tpstry_build_s" -> tpsS, "warmup_s" -> warmS)))
  }

  /** The untraced run: one `compareSystems` call (the Fig. 7 cell), then
    * passes of every partitioner until `--seconds` have passed, so that each
    * system's map is checked against its warm-up pass. The partitioners' own
    * times are per-layer metrics of the traced run (see README.md for why).
    */
  def timedRun(p: Prepared, setup: Setup, opt: Options, checks: Checks): Vector[Metric] = {
    val deadline = System.nanoTime() + (opt.seconds * 1e9).toLong
    val (rows, expS) = Stats.timed(experiment(p))
    checks.experiment(rows, ExperimentRunner.Systems)
    def checkedPasses(): Unit = ExperimentRunner.Systems.foreach { s =>
      checks.partitionMap(s, p.partition(s).pmap, p.vertices, p.k)
    }
    checkedPasses()
    while (System.nanoTime() < deadline) checkedPasses()
    val rel = ExperimentRunner.relativeToHash(rows).map { case (r, pct) => r.system -> pct }.toMap
    Vector(
      Metric("setup_s", setup.seconds, "s"),
      Metric("experiment_s", expS, "s"),
      Metric("loom_ipt_pct_hash", rel("Loom"), "%"),
      Metric("fennel_ipt_pct_hash", rel("Fennel"), "%"),
      Metric("ldg_ipt_pct_hash", rel("LDG"), "%"),
      Metric("loom_imbalance", rows.find(_.system == "Loom").get.imbalance, "ratio"),
    )
  }

  /** One Fig. 7 cell through the public entry point. */
  def experiment(p: Prepared): Vector[IptRow] =
    ExperimentRunner.compareSystems(p.spark, p.spec.dataset, p.edges, p.spec.order,
                                    p.workload, p.k, p.window, seed = p.orderSeed)

  /** Print the human-readable summary and, last, the one-line JSON result. */
  def report(p: Prepared, setup: Setup, opt: Options, checks: Checks, metrics: Vector[Metric]): Unit = {
    println(s"workload ${p.spec.name}: ${p.spec.dataset.name} ${p.spec.order.name} window=${p.window} " +
            s"k=${p.k} sf=${Spec.Sf} gen-seed=${opt.genSeed} order-seed=${opt.orderSeed} " +
            s"edges=${p.m} vertices=${p.n} trace=${if (opt.trace) 1 else 0}")
    setup.parts.foreach { case (n, s) => println(f"  setup part $n%-16s $s%10.3f s") }
    checks.allDigests.foreach { case (s, d) => println(s"  map digest ${s.padTo(7, ' ')} $d") }
    metrics.foreach(mt => println(f"  ${mt.name}%-32s ${mt.value}%14.4f ${mt.unit}"))
    checks.failures.foreach(f => Console.err.println(s"[perfbench] CHECK FAILED: $f"))
    val correct = checks.failures.isEmpty && checks.failed == 0
    val body = metrics.map(mt => s"${Json.str(mt.name)}: {\"value\": ${Json.num(mt.value)}, \"unit\": ${Json.str(mt.unit)}}")
    println(s"""{"correct": $correct, "attempted": ${checks.attempted}, "failed": ${checks.failed}, """ +
            s""""metrics": {${body.mkString(", ")}}}""")
  }
}
