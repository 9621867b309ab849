package perfbench

import java.sql.DriverManager

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, monotonically_increasing_id}
import org.apache.spark.storage.StorageLevel
import org.duckdb.DuckDBConnection

import repro.core.Uniqueness
import repro.scale.WitnessStats

/** The data-scale layers: the Prop. 3.2 redundancy scan on denormalised
  * TPC-H-lite (lineitem ⋈ orders) at SF 0.1, about 600k rows, with lineitem
  * generated from the workload seed. The `fig3-mc` traced run calls
  * `WitnessStats.profile` over the planted FDs and
  * `Uniqueness.nonUniqueCountsDF` once each, inside spans, with the Spark
  * work they cause counted as `scale.spark.*`.
  *
  * Checks: DuckDB, loaded with the same rows, computes every count of both
  * results with its own SQL, and every planted FD holds there; a copy with
  * one count raised by 1 must be rejected.
  */
object ScaleScan {

  val ScaleFactor = 0.1
  private val Fds = WitnessStats.denormFds

  /** Per-FD profile rows (`fd, holds, n_groups, n_dup_groups,
    * n_nonunique_cells, n_witness_pairs`) and non-unique cells per attribute.
    */
  final case class Output(profile: Vector[Vector[String]], nonUnique: Map[String, Long])

  /** Times the scan layers into `trace` and returns the problems the checks
    * find.
    */
  def traced(spark: SparkSession, seed: Long, trace: Trace, counters: SparkCounters): Vector[String] = {
    val df = trace.span("scale.generate") {
      val df = WitnessStats.lineitemDenorm(spark, ScaleFactor, seed)
        .withColumn("row_id", monotonically_increasing_id())
        .persist(StorageLevel.MEMORY_ONLY)
      trace.count("scale.WitnessStats.rows", df.count().toDouble)
      df
    }
    val out = counters.around(spark, trace, "scale.spark") {
      trace.span("scale.scan") {
        val profile = trace.span("scale.WitnessStats.profile") {
          WitnessStats.profile(spark, df, Fds).collect().map(r => r.toSeq.map(String.valueOf).toVector).toVector
        }
        val nonUnique = trace.span("core.Uniqueness.df_scan") {
          Uniqueness.nonUniqueCountsDF(df, Fds, "row_id").collect().map(r => r.getString(0) -> r.getLong(1)).toMap
        }
        Output(profile, nonUnique)
      }
    }
    val reference = duckdb(df)
    df.unpersist(blocking = true)
    val (attr, n) = out.nonUnique.head
    val problems = check(out, reference)
    if (check(out.copy(nonUnique = out.nonUnique.updated(attr, n + 1)), reference).isEmpty)
      problems :+ "the checks accepted a perturbed scan count"
    else problems
  }

  private def check(out: Output, reference: Output): Vector[String] = {
    val holds = reference.profile.filter(_(1) != "true").map(r => s"planted FD ${r(0)} does not hold")
    val profile =
      if (out.profile.sortBy(_(0)) != reference.profile) Vector(s"scan: profile ${out.profile} differs from DuckDB's ${reference.profile}")
      else Vector.empty
    val counts =
      if (out.nonUnique != reference.nonUnique) Vector(s"scan: non-unique counts ${out.nonUnique} differ from DuckDB's ${reference.nonUnique}")
      else Vector.empty
    holds ++ profile ++ counts
  }

  /** The expected scan results, computed by DuckDB over the same rows. */
  private def duckdb(df: DataFrame): Output = {
    val cols = (Fds.flatMap(_._1) ++ Fds.map(_._2)).distinct
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      conn.createStatement.execute(s"CREATE TABLE t (${cols.map(c => s"$c VARCHAR").mkString(", ")})")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "t")
      for (r <- df.select(cols.map(c => col(c).cast("string")): _*).collect()) {
        app.beginRow()
        cols.indices.foreach(i => app.append(r.getString(i)))
        app.endRow()
      }
      app.close()
      def query(sql: String): Vector[Vector[String]] = {
        val rs = conn.createStatement.executeQuery(sql)
        val n = rs.getMetaData.getColumnCount
        Iterator.continually(rs).takeWhile(_.next()).map(r => (1 to n).map(i => String.valueOf(r.getObject(i))).toVector).toVector
      }
      val profile = Fds.map { case (lhs, rhs) =>
        val row = query(
          s"""SELECT max(d) <= 1, count(*), count(*) FILTER (WHERE g > 1),
             |       coalesce(sum(g) FILTER (WHERE g > 1), 0), sum(g * (g - 1))
             |FROM (SELECT count(*) AS g, count(DISTINCT $rhs) AS d FROM t GROUP BY ${lhs.mkString(", ")})""".stripMargin).head
        s"${lhs.mkString(", ")} -> $rhs" +: row
      }.toVector.sortBy(_(0))
      val nonUnique = Fds.groupBy(_._2).map { case (rhs, fds) =>
        val groups = fds.indices.map(i => s"count(*) OVER (PARTITION BY ${fds(i)._1.mkString(", ")}) AS g$i")
        val cond = fds.indices.map(i => s"g$i > 1").mkString(" OR ")
        rhs -> query(s"SELECT count(*) FROM (SELECT ${groups.mkString(", ")} FROM t) WHERE $cond").head.head.toLong
      }.filter(_._2 > 0)
      Output(profile, nonUnique)
    } finally conn.close()
  }
}
