package repro.engine

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.Model._
import repro.core.NaiveIso
import repro.graphgen.Datasets
import repro.workloads.Workloads

/** Tests for the DataFrame pattern-match engine, cross-checked against the
  * brute-force matcher and the DuckDB oracle.
  */
class PatternMatcherSpec extends SparkSpec {
  import QueryGraph._

  private def edgesDf(es: Seq[LEdge]): DataFrame = {
    import spark.implicits._
    es.map(e => (e.u, e.uLabel, e.v, e.vLabel)).toDF("u", "ul", "v", "vl")
  }

  /** The vertex→partition table `(vid, pid)` that `countSql` joins. */
  private def pmapDf(pmap: Map[VId, Int]): DataFrame = {
    import spark.implicits._
    pmap.toSeq.toDF("vid", "pid")
  }

  /** The paper's Fig. 1-style example fragment: vertices 1,3,6 labelled a;
    * 2 labelled b; plus a small b-side tail.
    */
  private val fig1 = Vector(
    LEdge(1, "a", 2, "b"), LEdge(2, "b", 3, "a"), LEdge(6, "a", 2, "b"),
    LEdge(3, "a", 4, "b"), LEdge(4, "b", 5, "a"),
  )

  test("directed view doubles the edge count") {
    val df = edgesDf(fig1)
    assert(PatternMatcher.directedView(df).count() == 2L * fig1.size)
  }

  test("single-edge pattern: each a-b edge matches once") {
    val df = edgesDf(fig1)
    assert(PatternMatcher.matchCount(df, singleEdge("a", "b")) == fig1.size)
  }

  test("q2-style a-b-a path matches the expected sub-graphs") {
    val df = edgesDf(fig1)
    val got = PatternMatcher.matches(df, path("a", "b", "a")).collect().map { r =>
      r.getSeq[org.apache.spark.sql.Row](0).map(e => (e.getLong(0), e.getLong(1))).toSet
    }.toSet
    val expected = NaiveIso.matches(path("a", "b", "a"), SubGraph(fig1.toSet)).toSet
    assert(got == expected)
    assert(got.contains(Set((1L, 2L), (2L, 3L))), "the paper's q2 match {(1,2),(2,3)}")
    assert(got.contains(Set((2L, 6L), (2L, 3L))), "the paper's q2 match {(6,2),(2,3)}")
  }

  test("automorphism dedup: b-a-b counts each sub-graph once") {
    val es = Vector(LEdge(1, "b", 2, "a"), LEdge(2, "a", 3, "b"))
    val df = edgesDf(es)
    assert(PatternMatcher.embeddings(df, path("b", "a", "b")).count() == 2)
    assert(PatternMatcher.matchCount(df, path("b", "a", "b")) == 1)
  }

  test("injectivity: no vertex is used twice in one match") {
    val es = Vector(LEdge(1, "a", 2, "b"))
    assert(PatternMatcher.matchCount(edgesDf(es), path("a", "b", "a")) == 0)
  }

  test("labels filter matches") {
    val df = edgesDf(fig1)
    assert(PatternMatcher.matchCount(df, singleEdge("a", "c")) == 0)
  }

  test("spark matches equal brute force on every workload pattern (small graphs)") {
    val rnd = new scala.util.Random(7)
    val labels = Vector("a", "b", "c")
    val es = Iterator.continually {
      val u = rnd.nextInt(12); val v = rnd.nextInt(12)
      if (u == v) None
      else Some(LEdge(math.min(u, v).toLong, labels(math.min(u, v) % 3),
                      math.max(u, v).toLong, labels(math.max(u, v) % 3)))
    }.flatten.take(60).toVector.distinct
    val df = edgesDf(es)
    val patterns = Vector(
      singleEdge("a", "b"), path("a", "b", "c"), path("a", "b", "a"),
      path("c", "b", "a", "b"), star("b", "a", "c"), cycle("a", "b", "c"),
    )
    val g = SubGraph(es.toSet)
    patterns.foreach { q =>
      val sparkCnt = PatternMatcher.matchCount(df, q)
      val bruteCnt = NaiveIso.matches(q, g).size
      assert(sparkCnt == bruteCnt, s"pattern $q: spark=$sparkCnt brute=$bruteCnt")
    }
  }

  test("countSql is validated by the DuckDB oracle on the fig1 fragment") {
    val df   = edgesDf(fig1)
    val pmap = pmapDf(Map(1L -> 0, 2L -> 0, 3L -> 0, 4L -> 1, 5L -> 1, 6L -> 1))
    df.createOrReplaceTempView("edges")
    pmap.createOrReplaceTempView("pmap")
    Vector(singleEdge("a", "b"), path("a", "b", "a"), path("a", "b", "a", "b"))
      .foreach { q =>
        val sql = PatternMatcher.countSql(q)
        Oracle.assertEquivalent(spark.sql(sql), sql, "edges" -> df, "pmap" -> pmap)
      }
  }

  test("countSql is validated by the DuckDB oracle on a generated dataset") {
    val df = Datasets.provgen.generate(spark, 0.01).cache()
    try {
      val vids = df.select("u").union(df.select("v")).distinct().collect().map(_.getLong(0))
      val pm   = pmapDf(vids.map(v => v -> (v % 4).toInt).toMap)
      df.createOrReplaceTempView("edges")
      pm.createOrReplaceTempView("pmap")
      Workloads.provgen.queries.foreach { case (q, _) =>
        val sql = PatternMatcher.countSql(q)
        Oracle.assertEquivalent(spark.sql(sql), sql, "edges" -> df, "pmap" -> pm)
      }
    } finally df.unpersist()
  }

  test("countSql embedding counts agree with the DataFrame API embeddings") {
    val df   = edgesDf(fig1)
    val pmap = pmapDf((1L to 6L).map(_ -> 0).toMap)
    df.createOrReplaceTempView("edges")
    pmap.createOrReplaceTempView("pmap")
    Vector(path("a", "b", "a"), path("b", "a", "b"), singleEdge("a", "b")).foreach { q =>
      val sqlCnt = spark.sql(PatternMatcher.countSql(q)).collect()(0).getLong(0)
      val apiCnt = PatternMatcher.embeddings(df, q).count()
      assert(sqlCnt == apiCnt, s"pattern $q: sql=$sqlCnt api=$apiCnt")
    }
  }

  test("empty graphs yield zero matches") {
    val df = edgesDf(Vector.empty)
    assert(PatternMatcher.matchCount(df, path("a", "b")) == 0)
  }
}
