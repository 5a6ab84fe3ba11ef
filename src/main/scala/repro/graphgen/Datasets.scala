package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The five evaluation datasets (paper Table 1), as schema-faithful synthetic
  * analogues at reduced scale (see DESIGN.md "Substitutions").
  *
  * Label alphabet sizes match the paper exactly (|L_V| = 8/3/12/15/15);
  * vertex/edge budgets are the paper's divided by ~50 (LUBM-4000 by ~1000,
  * timing-only as in the paper). `generate` is deterministic in (sf, seed).
  */
final case class Dataset(name: String, schema: GraphSchema,
                         nVertices: Long, mEdges: Long,
                         paperV: String, paperE: String, real: Boolean,
                         description: String) {
  def numLabels: Int = schema.numLabels

  /** Edge DataFrame at scale factor sf (1.0 = this dataset's lite scale).
    * Runs a Spark job and returns the graph materialised and lineage-free in
    * executor storage (see [[SchemaGraphGen.edges]]).
    */
  def generate(spark: SparkSession, sf: Double = 1.0, seed: Long = 7L): DataFrame =
    SchemaGraphGen.edges(spark, schema,
                         math.max(16L, (nVertices * sf).toLong),
                         math.max(16L, (mEdges * sf).toLong), seed)
}

object Datasets {

  /** DBLP: publications & citations. 8 labels as in the paper. */
  val dblp: Dataset = Dataset(
    name = "DBLP",
    schema = GraphSchema(
      "dblp",
      labelShares = Vector(
        "Author" -> 0.40, "Paper" -> 0.45, "Venue" -> 0.02, "Year" -> 0.01,
        "Publisher" -> 0.02, "Editor" -> 0.04, "Series" -> 0.02, "School" -> 0.04,
      ),
      // Queried relations (authorship, publication venue) are block-local;
      // citations are the heavyweight cross-block relation (papers cite
      // famous and cross-topic papers outside their collaboration community)
      // that drags a workload-agnostic min-cut away from the queried
      // structure — the regime of the paper's §1 motivation.
      edgeTypes = Vector(
        EdgeType("Author", "Paper", 0.42, srcSkew = 2.0),            // authorship (queried)
        EdgeType("Paper", "Paper", 0.28, dstSkew = 3.0, axis = 1),   // citations (cross-block)
        EdgeType("Paper", "Venue", 0.12, dstSkew = 2.0),             // published-in (queried)
        EdgeType("Paper", "Year", 0.06, dstSkew = 1.5, axis = 1),
        EdgeType("Venue", "Publisher", 0.02, axis = 1),
        EdgeType("Editor", "Venue", 0.04, axis = 1),
        EdgeType("Author", "School", 0.06, srcSkew = 1.5, axis = 1),
      ),
    ),
    nVertices = 24000, mEdges = 50000,
    paperV = "1.2M", paperE = "2.5M", real = true,
    description = "Publications & citations",
  )

  /** ProvGen: PROV provenance graphs. 3 labels (Entity/Activity/Agent). */
  val provgen: Dataset = Dataset(
    name = "ProvGen",
    schema = GraphSchema(
      "provgen",
      labelShares = Vector("Entity" -> 0.60, "Activity" -> 0.30, "Agent" -> 0.10),
      // Derivation/usage chains are process-local; agents span processes
      // (one curator touches many wiki pages), so agent edges cross blocks.
      edgeTypes = Vector(
        EdgeType("Entity", "Activity", 0.45, dstSkew = 1.5),          // used/wasGeneratedBy (queried)
        EdgeType("Entity", "Entity", 0.30, dstSkew = 2.0),            // wasDerivedFrom (queried)
        EdgeType("Activity", "Agent", 0.15, dstSkew = 2.5, axis = 1), // wasAssociatedWith (cross)
        EdgeType("Entity", "Agent", 0.10, dstSkew = 2.5, axis = 1),   // wasAttributedTo (cross)
      ),
    ),
    nVertices = 10000, mEdges = 18000,
    paperV = "0.5M", paperE = "0.9M", real = false,
    description = "Wiki page provenance",
  )

  /** MusicBrainz: music metadata. 12 labels. The most heterogeneous graph. */
  val musicbrainz: Dataset = Dataset(
    name = "MusicBrainz",
    schema = GraphSchema(
      "musicbrainz",
      labelShares = Vector(
        "Artist" -> 0.18, "Album" -> 0.20, "Track" -> 0.30, "Recording" -> 0.12,
        "Label" -> 0.03, "Country" -> 0.005, "Genre" -> 0.005, "Work" -> 0.08,
        "Release" -> 0.05, "Place" -> 0.01, "Event" -> 0.01, "Series" -> 0.005,
      ),
      // Discography relations (artist-album-track) are scene-local; the
      // heavy archival relations (recordings shared across albums, releases,
      // countries, genres, events) cross scenes — the most heterogeneous,
      // highest-tension dataset, as in the paper.
      edgeTypes = Vector(
        EdgeType("Artist", "Album", 0.22, srcSkew = 2.5),               // queried
        EdgeType("Album", "Track", 0.28),                               // queried
        EdgeType("Track", "Recording", 0.14, axis = 1),                 // cross
        EdgeType("Artist", "Country", 0.06, dstSkew = 2.0, axis = 1),   // cross
        EdgeType("Label", "Album", 0.08, srcSkew = 2.5),                // queried
        EdgeType("Artist", "Genre", 0.05, dstSkew = 2.0, axis = 1),     // cross
        EdgeType("Release", "Album", 0.06, axis = 1),                   // cross
        EdgeType("Work", "Recording", 0.05, axis = 1),                  // cross
        EdgeType("Artist", "Event", 0.03, srcSkew = 2.0, axis = 1),     // cross
        EdgeType("Event", "Place", 0.02),
        EdgeType("Series", "Event", 0.01, axis = 1),
      ),
    ),
    nVertices = 60000, mEdges = 200000,
    paperV = "31M", paperE = "100M", real = true,
    description = "Music records metadata",
  )

  /** LUBM-100: university records benchmark. 15 labels. */
  val lubm100: Dataset = Dataset(
    name = "LUBM-100",
    schema = lubmSchema,
    nVertices = 26000, mEdges = 110000,
    paperV = "2.6M", paperE = "11M", real = false,
    description = "University records",
  )

  /** LUBM-4000: the paper's largest graph, used for timing only (§5.2). */
  val lubm4000: Dataset = Dataset(
    name = "LUBM-4000",
    schema = lubmSchema,
    nVertices = 131000, mEdges = 534000,
    paperV = "131M", paperE = "534M", real = false,
    description = "University records",
  )

  private lazy val lubmSchema: GraphSchema = GraphSchema(
    "lubm",
    labelShares = Vector(
      "University" -> 0.004, "Department" -> 0.02, "FullProfessor" -> 0.03,
      "Lecturer" -> 0.03, "UndergradStudent" -> 0.38, "GradStudent" -> 0.14,
      "Course" -> 0.09, "GradCourse" -> 0.05, "Publication" -> 0.18,
      "ResearchGroup" -> 0.02, "Chair" -> 0.004, "TeachingAssistant" -> 0.02,
      "ResearchAssistant" -> 0.02, "Degree" -> 0.004, "Dean" -> 0.004,
    ),
    // Teaching relations (enrolment, teacherOf, worksFor, publications) are
    // department-local; general-education enrolment, cross-department
    // co-publication and advisory ties cross blocks.
    edgeTypes = Vector(
      EdgeType("Department", "University", 0.02, srcSkew = 1.5),
      EdgeType("FullProfessor", "Department", 0.04),                             // queried
      EdgeType("Lecturer", "Department", 0.03, axis = 1),
      EdgeType("UndergradStudent", "Department", 0.10, axis = 1),                // cross
      EdgeType("UndergradStudent", "Course", 0.26, dstSkew = 1.5),               // queried
      EdgeType("GradStudent", "GradCourse", 0.12, dstSkew = 1.5),                // queried
      EdgeType("FullProfessor", "Course", 0.05, srcSkew = 1.5),                  // queried
      EdgeType("Lecturer", "Course", 0.04, axis = 1),
      EdgeType("Publication", "FullProfessor", 0.14, dstSkew = 2.0),             // queried
      EdgeType("Publication", "GradStudent", 0.08, dstSkew = 1.5, axis = 1),     // cross
      EdgeType("GradStudent", "FullProfessor", 0.05, dstSkew = 2.0, axis = 1),   // advisor (cross)
      EdgeType("TeachingAssistant", "Course", 0.02, axis = 1),
      EdgeType("ResearchAssistant", "ResearchGroup", 0.02, axis = 1),
      EdgeType("ResearchGroup", "Department", 0.01),
      EdgeType("FullProfessor", "Degree", 0.01, dstSkew = 1.5, axis = 1),
      EdgeType("Chair", "Department", 0.005, axis = 1),
      EdgeType("Dean", "Department", 0.005, axis = 1),
    ),
  )

  /** The four datasets whose workloads are executed for ipt (Fig. 7/8). */
  val queryable: Vector[Dataset] = Vector(dblp, provgen, musicbrainz, lubm100)

  /** All five datasets (Table 1 / Table 2). */
  val all: Vector[Dataset] = queryable :+ lubm4000

  def byName(name: String): Dataset =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))
}
