package repro.engine

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.Model._

/** Sub-graph pattern matching over an edge DataFrame with Catalyst joins.
  *
  * The data graph is a DataFrame `(u: long, ul: string, v: long, vl: string)`
  * of canonicalised undirected edges. Matching builds a symmetric (directed)
  * view and folds one self-join per pattern edge, with label predicates and
  * injectivity filters; [[matches]] additionally deduplicates automorphic
  * embeddings by the canonical sorted array of matched data edges, so each
  * sub-graph R_i of the paper's definition (§1.3) counts exactly once.
  *
  * [[countSql]] emits an equivalent plain-SQL query (runnable by both Spark
  * and DuckDB over the same input tables) used by the correctness oracle.
  */
object PatternMatcher {

  /** Symmetric directed view of an undirected edge DataFrame. */
  def directedView(edges: DataFrame): DataFrame = {
    val fwd = edges.select(col("u") as "a", col("ul") as "al",
                           col("v") as "b", col("vl") as "bl")
    val bwd = edges.select(col("v") as "a", col("vl") as "al",
                           col("u") as "b", col("ul") as "bl")
    fwd.unionAll(bwd)
  }

  /** All injective embeddings of pattern q: one row per embedding, columns
    * `p0..p{n-1}` holding the data-vertex id bound to each pattern vertex.
    */
  def embeddings(edges: DataFrame, q: QueryGraph): DataFrame = {
    val d = directedView(edges)

    // Fold a join per pattern edge, tracking which pattern vertex is bound
    // to which output column.
    var bound = Map.empty[Int, String] // pattern vertex -> column name
    var acc: DataFrame = null

    q.edges.zipWithIndex.foreach { case ((pa, pb), i) =>
      val e = d.select(col("a") as s"a$i", col("al") as s"al$i",
                       col("b") as s"b$i", col("bl") as s"bl$i")
      if (acc == null) {
        acc = e.where(col(s"al$i") === q.labels(pa) && col(s"bl$i") === q.labels(pb))
        bound += pa -> s"a$i"; bound += pb -> s"b$i"
      } else {
        var cond: Column = lit(true)
        (bound.get(pa), bound.get(pb)) match {
          case (Some(ca), Some(cb)) =>
            cond = col(s"a$i") === col(ca) && col(s"b$i") === col(cb)
          case (Some(ca), None) =>
            cond = col(s"a$i") === col(ca) && col(s"bl$i") === q.labels(pb)
            bound += pb -> s"b$i"
          case (None, Some(cb)) =>
            cond = col(s"b$i") === col(cb) && col(s"al$i") === q.labels(pa)
            bound += pa -> s"a$i"
          case (None, None) =>
            // Disconnected pattern edge (not produced by our constructors,
            // but handled for completeness): cross join with label filters.
            cond = col(s"al$i") === q.labels(pa) && col(s"bl$i") === q.labels(pb)
            bound += pa -> s"a$i"; bound += pb -> s"b$i"
        }
        acc = acc.join(e, cond)
      }
    }

    // Injectivity: distinct pattern vertices map to distinct data vertices.
    // One conjunctive filter, so the plan is analysed once, not per pair.
    val verts = (0 until q.numVertices).toVector
    val injective = for (x <- verts; y <- verts if x < y) yield col(bound(x)) =!= col(bound(y))
    acc.where(injective.reduce(_ && _))
      .select(verts.map(i => col(bound(i)) as s"p$i"): _*)
  }

  /** Over the columns of [[embeddings]]: one `struct<x,y>` per pattern edge
    * of q, the canonical (smaller id first) data edge it is mapped onto.
    */
  private[engine] def embeddedEdges(q: QueryGraph): Vector[Column] =
    q.edges.map { case (a, b) =>
      struct(least(col(s"p$a"), col(s"p$b")) as "x",
             greatest(col(s"p$a"), col(s"p$b")) as "y")
    }

  /** Distinct matches of q: one row per matched sub-graph, with the column
    * `edges: array<struct<x,y>>` holding the canonical sorted edge list.
    */
  def matches(edges: DataFrame, q: QueryGraph): DataFrame =
    embeddings(edges, q).select(array_sort(array(embeddedEdges(q): _*)) as "edges").distinct()

  /** Number of distinct matches of q in the graph. */
  def matchCount(edges: DataFrame, q: QueryGraph): Long = matches(edges, q).count()

  /** Plain SQL computing `(embeddings, ipt)` for pattern q over tables
    * `edges(u,ul,v,vl)` and `pmap(vid,pid)` — the embedding count and the
    * total number of pattern-edge traversals that cross partitions, summed
    * over all embeddings. Valid Spark SQL *and* DuckDB SQL, so the oracle
    * can diff the two engines on identical text.
    */
  def countSql(q: QueryGraph, edgesTable: String = "edges",
               pmapTable: String = "pmap"): String = {
    val n = q.numVertices
    var bound = Map.empty[Int, String]
    val joins = new StringBuilder
    val conds = Vector.newBuilder[String]

    q.edges.zipWithIndex.foreach { case ((pa, pb), i) =>
      joins.append(if (i == 0) s"d e$i" else s", d e$i")
      (bound.get(pa), bound.get(pb)) match {
        case (Some(ca), Some(cb)) =>
          conds += s"e$i.a = $ca"; conds += s"e$i.b = $cb"
        case (Some(ca), None) =>
          conds += s"e$i.a = $ca"; conds += s"e$i.bl = '${q.labels(pb)}'"
          bound += pb -> s"e$i.b"
        case (None, Some(cb)) =>
          conds += s"e$i.b = $cb"; conds += s"e$i.al = '${q.labels(pa)}'"
          bound += pa -> s"e$i.a"
        case (None, None) =>
          conds += s"e$i.al = '${q.labels(pa)}'"; conds += s"e$i.bl = '${q.labels(pb)}'"
          bound += pa -> s"e$i.a"; bound += pb -> s"e$i.b"
      }
    }
    // Injectivity.
    for (x <- 0 until n; y <- 0 until n if x < y)
      conds += s"${bound(x)} <> ${bound(y)}"
    // One pmap alias per pattern vertex.
    (0 until n).foreach { i =>
      joins.append(s", $pmapTable pm$i")
      conds += s"pm$i.vid = ${bound(i)}"
    }
    val crossing = q.edges.map { case (a, b) =>
      s"CASE WHEN pm$a.pid <> pm$b.pid THEN 1 ELSE 0 END"
    }.mkString(" + ")

    s"""WITH d AS (
       |  SELECT u AS a, ul AS al, v AS b, vl AS bl FROM $edgesTable
       |  UNION ALL
       |  SELECT v AS a, vl AS al, u AS b, ul AS bl FROM $edgesTable
       |)
       |SELECT CAST(count(*) AS BIGINT) AS embeddings,
       |       CAST(coalesce(sum($crossing), 0) AS BIGINT) AS ipt
       |FROM $joins
       |WHERE ${conds.result().mkString("\n  AND ")}""".stripMargin
  }
}
