package repro.graphgen

import scala.collection.mutable
import repro.SparkSpec
import repro.core.Model._

/** Tests for the three stream orderings (paper §5.1). */
class StreamOrderSpec extends SparkSpec {

  private lazy val edgesDf = Datasets.provgen.generate(spark, 0.02).cache()
  private lazy val baseSet = StreamOrder.collectEdges(edgesDf).map(_.canonical).toSet

  private def checkPermutation(stream: Vector[LEdge]): Unit = {
    assert(stream.map(_.canonical).toSet == baseSet, "stream must contain every edge once")
    assert(stream.size == baseSet.size, "no duplicates")
  }

  test("bfs stream is a permutation of the edge set") {
    checkPermutation(StreamOrder.stream(edgesDf, StreamOrder.Bfs))
  }

  test("dfs stream is a permutation of the edge set") {
    checkPermutation(StreamOrder.stream(edgesDf, StreamOrder.Dfs))
  }

  test("random stream is a permutation of the edge set") {
    checkPermutation(StreamOrder.stream(edgesDf, StreamOrder.Random))
  }

  test("random order is deterministic per seed and varies across seeds") {
    val a = StreamOrder.stream(edgesDf, StreamOrder.Random, seed = 1)
    val b = StreamOrder.stream(edgesDf, StreamOrder.Random, seed = 1)
    val c = StreamOrder.stream(edgesDf, StreamOrder.Random, seed = 2)
    assert(a == b)
    assert(a != c)
  }

  test("random order of a tiny ProvGen graph matches its recorded hash") {
    // Recorded from the generator's full lineage, before it ended in
    // localCheckpoint() (SparkSpec's session; the same on 2 and 4 cores): the
    // cut must keep the partitions and row order orderBy(rand(seed)) draws from.
    val lines = StreamOrder.stream(edgesDf, StreamOrder.Random)
      .map(e => s"${e.u} ${e.uLabel} ${e.v} ${e.vLabel}").mkString("\n")
    val sha = java.security.MessageDigest.getInstance("SHA-256")
      .digest(lines.getBytes("UTF-8")).map("%02x".format(_)).mkString
    assert(sha.take(16) == "a8929fadf04d204c", s"random stream hash ${sha.take(16)}")
  }

  test("bfs and dfs are deterministic") {
    assert(StreamOrder.stream(edgesDf, StreamOrder.Bfs) ==
           StreamOrder.stream(edgesDf, StreamOrder.Bfs))
    assert(StreamOrder.stream(edgesDf, StreamOrder.Dfs) ==
           StreamOrder.stream(edgesDf, StreamOrder.Dfs))
  }

  test("bfs, dfs and random produce genuinely different orders") {
    val bfs = StreamOrder.stream(edgesDf, StreamOrder.Bfs)
    val dfs = StreamOrder.stream(edgesDf, StreamOrder.Dfs)
    val rnd = StreamOrder.stream(edgesDf, StreamOrder.Random)
    assert(bfs != dfs)
    assert(bfs != rnd)
  }

  /** Every traversal-ordered prefix must stay connected per component: each
    * new edge either touches a previously seen vertex or starts a new
    * component root.
    */
  private def checkPrefixLocality(stream: Vector[LEdge]): Unit = {
    val seen = mutable.Set.empty[VId]
    var newComponents = 0
    stream.foreach { e =>
      if (!seen.contains(e.u) && !seen.contains(e.v)) newComponents += 1
      seen += e.u; seen += e.v
    }
    // Component count equals the number of times we saw a totally fresh edge.
    val total = componentCount(stream)
    assert(newComponents == total,
           s"traversal order restarted $newComponents times for $total components")
  }

  private def componentCount(edges: Vector[LEdge]): Int = {
    val parent = mutable.Map.empty[VId, VId]
    def find(x: VId): VId = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      parent(x) = r; r
    }
    edges.foreach { e =>
      parent.getOrElseUpdate(e.u, e.u); parent.getOrElseUpdate(e.v, e.v)
      val (ru, rv) = (find(e.u), find(e.v))
      if (ru != rv) parent(ru) = rv
    }
    parent.keys.map(find).toSet.size
  }

  test("bfs order has traversal locality (one fresh edge per component)") {
    checkPrefixLocality(StreamOrder.stream(edgesDf, StreamOrder.Bfs))
  }

  test("dfs order has traversal locality (one fresh edge per component)") {
    checkPrefixLocality(StreamOrder.stream(edgesDf, StreamOrder.Dfs))
  }

  test("bfs on a star emits all spokes consecutively from the centre") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val star = (1L to 5L).map(i => (0L, "c", 10L + i, "l")).toDF("u", "ul", "v", "vl")
    val bfs  = StreamOrder.stream(star, StreamOrder.Bfs)
    assert(bfs.size == 5)
    assert(bfs.forall(_.u == 0L))
  }

  test("dfs dives into the most recent branch before returning to earlier ones") {
    import spark.implicits._
    // Two depth-2 branches from root 0: 0-1-2 and 0-3-4.
    val df = Seq((0L, "x", 1L, "x"), (1L, "x", 2L, "x"),
                 (0L, "x", 3L, "x"), (3L, "x", 4L, "x")).toDF("u", "ul", "v", "vl")
    val dfs = StreamOrder.stream(df, StreamOrder.Dfs).map(_.canonical)
    val bfs = StreamOrder.stream(df, StreamOrder.Bfs).map(_.canonical)
    assert(bfs == Vector((0L, 1L), (0L, 3L), (1L, 2L), (3L, 4L)))
    assert(dfs == Vector((0L, 1L), (0L, 3L), (3L, 4L), (1L, 2L)))
  }
}
