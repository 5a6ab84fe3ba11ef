package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Model._
import repro.core.NaiveIso
import repro.graphgen.Datasets
import repro.workloads.Workloads

/** ipt measurement tests, including the paper's §1 motivating example. */
class IptEvaluatorSpec extends SparkSpec {
  import QueryGraph._

  private def edgesDf(es: Seq[LEdge]): DataFrame = {
    import spark.implicits._
    es.map(e => (e.u, e.uLabel, e.v, e.vLabel)).toDF("u", "ul", "v", "vl")
  }

  private def pmapDf(pmap: Map[VId, Int]): DataFrame = {
    import spark.implicits._
    pmap.toSeq.toDF("vid", "pid")
  }

  /** Crossing edges summed over the given matches. */
  private def crossings(ms: Vector[Set[(VId, VId)]], pmap: Map[VId, Int]): Long =
    ms.map(_.count { case (x, y) => pmap(x) != pmap(y) }.toLong).sum

  /** Brute-force ipt for cross-checking. */
  private def bruteIpt(es: Vector[LEdge], pmap: Map[VId, Int], q: QueryGraph): Long =
    crossings(NaiveIso.matches(q, SubGraph(es.toSet)), pmap)

  /** `(matches, ipt)` of one query through the weight table. */
  private def tableIpt(es: Vector[LEdge], pmap: Map[VId, Int], q: QueryGraph): (Long, Long) = {
    val r = IptEvaluator.edgeWeights(edgesDf(es), Workload(Vector(q -> 1.0))).score(pmap).perQuery.head
    (r.matchCount, r.ipt)
  }

  /** Reference: the join-based per-query scoring that the weight table
    * replaced. It re-runs the match for every map, explodes each match's
    * edges and inner-joins the vertex→partition map on both endpoints.
    */
  private def joinIpt(edges: DataFrame, pmap: Map[VId, Int], q: QueryGraph): (Long, Long) = {
    val pm = pmapDf(pmap)
    val ms = PatternMatcher.matches(edges, q).cache()
    try {
      val cnt = ms.count()
      if (cnt == 0) (0L, 0L)
      else {
        val exploded = ms.select(explode(col("edges")) as "e")
          .select(col("e.x") as "x", col("e.y") as "y")
        val pm1 = pm.select(col("vid") as "xv", col("pid") as "xp")
        val pm2 = pm.select(col("vid") as "yv", col("pid") as "yp")
        val ipt = exploded
          .join(pm1, col("x") === col("xv"))
          .join(pm2, col("y") === col("yv"))
          .select(sum(when(col("xp") =!= col("yp"), 1L).otherwise(0L)) as "ipt")
          .collect()(0).getLong(0)
        (cnt, ipt)
      }
    } finally ms.unpersist()
  }

  /** Score every map with one weight table of (`es`, `w`) and check each
    * query's result against brute force, the join-based reference, DuckDB's
    * `countSql` and `PatternMatcher.matchCount`.
    */
  private def differential(es: Vector[LEdge], w: Workload, pmaps: Seq[Map[VId, Int]]): Unit = {
    val df = edgesDf(es).cache()
    try {
      val table = IptEvaluator.edgeWeights(df, w)
      val brute = w.queries.map { case (q, _) => NaiveIso.matches(q, SubGraph(es.toSet)) }
      w.queries.zipWithIndex.foreach { case ((q, _), i) =>
        assert(table.matchCounts(i) == PatternMatcher.matchCount(df, q), s"query $i")
        assert(table.matchCounts(i) == brute(i).size, s"query $i")
      }
      df.createOrReplaceTempView("edges")
      pmaps.zipWithIndex.foreach { case (pmap, m) =>
        val res = table.score(pmap)
        val pm  = pmapDf(pmap)
        pm.createOrReplaceTempView("pmap")
        w.queries.zipWithIndex.foreach { case ((q, _), i) =>
          val r   = res.perQuery(i)
          val ctx = s"map $m query $i"
          assert(r.ipt == crossings(brute(i), pmap), ctx)
          assert((r.matchCount, r.ipt) == joinIpt(df, pmap, q), ctx)
          // DuckDB counts every match once per label-preserving automorphism,
          // so its ipt and ours differ by the same factor as the counts.
          val sql   = PatternMatcher.countSql(q)
          val sqlDf = spark.sql(sql)
          Oracle.assertEquivalent(sqlDf, sql, "edges" -> df, "pmap" -> pm)
          val row = sqlDf.collect()(0)
          val (emb, iptSql) = (row.getLong(0), row.getLong(1))
          assert(BigInt(iptSql) * r.matchCount == BigInt(r.ipt) * emb, ctx)
          assert((emb == 0) == (r.matchCount == 0), ctx)
        }
      }
    } finally df.unpersist()
  }

  /** Reference: the weight table counted the way it was before automorphism
    * division, from deduplicated matches. Each match's canonical edges are
    * exploded and counted per (edge, query).
    */
  private def matchTable(edges: DataFrame, w: Workload): Map[(VId, VId), Vector[Long]] = {
    val perEdge = w.queries.zipWithIndex.map { case ((q, _), i) =>
      PatternMatcher.matches(edges, q)
        .select(lit(i) as "q", explode(col("edges")) as "e")
        .select(col("e.x") as "x", col("e.y") as "y", col("q"))
    }.reduce(_ union _).groupBy("x", "y", "q").count().collect()
    perEdge.groupBy(r => (r.getLong(0), r.getLong(1))).map { case (e, rs) =>
      e -> Vector.tabulate(w.queries.size)(i =>
        rs.find(_.getInt(2) == i).fold(0L)(_.getLong(3)))
    }
  }

  /** The weight table of (`es`, `w`) equals [[matchTable]] edge by edge. */
  private def perEdgeDifferential(es: Vector[LEdge], w: Workload): Unit = {
    val df = edgesDf(es).cache()
    try {
      val t      = IptEvaluator.edgeWeights(df, w)
      val byEdge = t.xs.indices.map(i => (t.xs(i), t.ys(i)) -> t.counts.map(_(i))).toMap
      assert(byEdge.size == t.xs.length, "an edge appears twice in the table")
      val ref = matchTable(df, w)
      assert(ref.nonEmpty)
      assert(byEdge.keySet == ref.keySet)
      ref.foreach { case (e, c) => assert(byEdge(e) == c, s"edge $e") }
    } finally df.unpersist()
  }

  /** One random k-way map over the vertices of `es` per k in `ks`. */
  private def randomMaps(es: Vector[LEdge], ks: Seq[Int], seed: Int): Seq[Map[VId, Int]] = {
    val rnd   = new scala.util.Random(seed)
    val verts = es.flatMap(e => Seq(e.u, e.v)).distinct
    ks.map(k => verts.map(v => v -> rnd.nextInt(k)).toMap)
  }

  /** The paper's §1 example, reconstructed: q2 (a-b-a) matches {(1,2),(2,3)}
    * and {(6,2),(2,3)}; partitioning {A,B} splits both matches while
    * A'={1,2,3,6}, B'={4,5,7,8} gives 0 ipt.
    */
  private val g = Vector(
    LEdge(1, "a", 2, "b"), LEdge(2, "b", 3, "a"), LEdge(6, "a", 2, "b"),
    LEdge(3, "a", 4, "c"), LEdge(4, "c", 5, "c"), LEdge(5, "c", 7, "c"),
    LEdge(7, "c", 8, "c"), LEdge(6, "a", 8, "c"),
  )
  private val q2 = path("a", "b", "a")
  private val gPatterns = Vector(q2, singleEdge("a", "b"), path("a", "c", "c"), path("c", "c", "c"))

  test("paper §1: min edge-cut partitioning suffers ipt on every q2 match") {
    // {A, B} = {1,2,3,4} | {5,6,7,8}: good edge-cut, but splits q2's matches.
    val ab = Map(1L -> 0, 2L -> 0, 3L -> 0, 4L -> 0, 5L -> 1, 6L -> 1, 7L -> 1, 8L -> 1)
    val (cnt, ipt) = tableIpt(g, ab, q2)
    assert(cnt == 3) // {(1,2),(2,3)}, {(6,2),(2,3)}, {(1,2),(2,6)}
    assert(ipt == bruteIpt(g, ab, q2))
    assert(ipt >= 2, s"the workload-agnostic split must pay ipt, got $ipt")
  }

  test("paper §1: the workload-aware partitioning A'B' gives 0 ipt for q2") {
    val aPrime = Map(1L -> 0, 2L -> 0, 3L -> 0, 6L -> 0, 4L -> 1, 5L -> 1, 7L -> 1, 8L -> 1)
    val (cnt, ipt) = tableIpt(g, aPrime, q2)
    assert(cnt == 3)
    assert(ipt == 0, "A'={1,2,3,6} keeps every a-b-a match internal")
  }

  test("ipt equals brute force for assorted partitionings and patterns") {
    val table = IptEvaluator.edgeWeights(edgesDf(g), Workload(gPatterns.map(_ -> 1.0)))
    randomMaps(g, Seq.fill(5)(3), seed = 3).zipWithIndex.foreach { case (pmap, trial) =>
      val res = table.score(pmap)
      gPatterns.zipWithIndex.foreach { case (q, i) =>
        assert(res.perQuery(i).ipt == bruteIpt(g, pmap, q), s"trial $trial pattern $q")
      }
    }
  }

  test("weight-table ipt equals brute force, the join reference and DuckDB on the §1 graph") {
    differential(g, Workload(gPatterns.map(_ -> 1.0)), randomMaps(g, Seq(2, 3, 4), seed = 5))
  }

  private lazy val provgen = Datasets.provgen.generate(spark, 0.03).collect().toVector.map { r =>
    LEdge(r.getAs[Long]("u"), r.getAs[String]("ul"), r.getAs[Long]("v"), r.getAs[String]("vl"))
  }

  test("weight-table ipt equals brute force, the join reference and DuckDB on ProvGen") {
    differential(provgen, Workloads.provgen, randomMaps(provgen, Seq(2, 4, 8), seed = 11))
  }

  test("|Aut(q)| counts the label-preserving automorphisms of q") {
    assert(NaiveIso.automorphismCount(q2) == 2)
    assert(NaiveIso.automorphismCount(path("a", "b", "c")) == 1)
    assert(NaiveIso.automorphismCount(star("Paper", "Author", "Author", "Author")) == 6)
    assert(NaiveIso.automorphismCount(cycle("a", "b", "a", "b")) == 4)
    assert(NaiveIso.automorphismCount(star("Album", "Artist", "Artist", "Label")) == 2)
  }

  test("the weight table equals the deduplicated-match count per edge on the §1 graph") {
    perEdgeDifferential(g, Workload(gPatterns.map(_ -> 1.0)))
  }

  test("the weight table equals the deduplicated-match count per edge on ProvGen") {
    perEdgeDifferential(provgen, Workloads.provgen)
  }

  test("workload evaluation weights per-query ipt by frequency") {
    val pmap = Map(1L -> 0, 2L -> 1, 3L -> 0, 4L -> 0, 5L -> 0, 6L -> 0, 7L -> 0, 8L -> 0)
    val w = Workload(Vector(q2 -> 2.0, singleEdge("a", "b") -> 1.0))
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap, w)
    val q2Ipt  = bruteIpt(g, pmap, q2)
    val seIpt  = bruteIpt(g, pmap, singleEdge("a", "b"))
    assert(res.perQuery.size == 2)
    assert(res.totalWeightedIpt == 2.0 * q2Ipt + 1.0 * seIpt)
  }

  test("queries with no matches contribute zero") {
    val pmap = g.flatMap(e => Seq(e.u, e.v)).distinct.map(_ -> 0).toMap
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap,
      Workload(Vector(path("z", "z") -> 5.0)))
    assert(res.totalWeightedIpt == 0.0)
    assert(res.totalMatches == 0)
  }

  test("single-partition placement always yields zero ipt") {
    val pmap = g.flatMap(e => Seq(e.u, e.v)).distinct.map(_ -> 0).toMap
    val res = IptEvaluator.evaluate(spark, edgesDf(g), pmap,
      Workload(Vector(q2 -> 1.0, path("c", "c", "c") -> 1.0)))
    assert(res.totalWeightedIpt == 0.0)
    assert(res.totalMatches > 0)
  }

  test("score rejects a map that leaves a vertex of a matched edge unplaced") {
    val table = IptEvaluator.edgeWeights(edgesDf(g), Workload(Vector(q2 -> 1.0)))
    val noSix = Map(1L -> 0, 2L -> 0, 3L -> 1, 4L -> 1, 5L -> 1, 7L -> 1, 8L -> 1)
    val err = intercept[IllegalArgumentException](table.score(noSix))
    assert(err.getMessage.contains("vertex 6"), err.getMessage)
  }
}
