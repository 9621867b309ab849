package perfbench

import java.nio.file.Paths

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** Runs one workload and prints one JSON line with its correctness, the
  * operations attempted and failed, and its metrics.
  *
  * Untraced runs set up three times (reporting the median as `setup_s`),
  * then measure whole rounds of the workload's operations until `--seconds`
  * of measured time have passed. Traced runs set up once and run one traced
  * round. Both check every round's outputs and confirm that the checks
  * reject perturbed copies of them.
  *
  * Arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --spans <file> --work-dir <dir>`.
  */
object Main {

  val Workloads: Map[String, Workload] = Map(
    "fig3-mc"      -> Fig3Mc,
    "table1-exact" -> Table1Exact,
  )

  private val SetupRepeats = 3

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = args.getOrElse(k, sys.error(s"missing --$k"))
    val workload = Workloads.getOrElse(arg("workload"), sys.error(s"unknown workload ${arg("workload")}"))
    val seed = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val traced = arg("trace") == "1"
    val workDir = Paths.get(arg("work-dir")).toAbsolutePath

    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    def session(): SparkSession = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()

    val problems = mutable.ArrayBuffer.empty[String]
    val metrics = mutable.LinkedHashMap.empty[String, Double]
    var attempted = 0
    var failed = 0

    def checkRound(p: Prepared)(outputs: Map[String, p.Out]): Unit = {
      problems ++= p.check(outputs)
      for ((bad, i) <- p.perturbations(outputs).zipWithIndex if p.check(bad).isEmpty)
        problems += s"the checks accepted perturbed output #$i"
    }

    var spark: SparkSession = null
    var prepared: Prepared = null
    val setups = (1 to (if (traced) 1 else SetupRepeats)).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session()
      prepared = workload.setup(spark, seed)
      val secs = (System.nanoTime() - t0) / 1e9
      Console.err.println(f"perfbench: set-up took $secs%.2f s")
      secs
    }
    val p = prepared

    if (traced) {
      val trace = new Trace
      val counters = new SparkCounters
      spark.sparkContext.addSparkListener(counters)
      val (outputs, layerProblems) = p.traced(trace, counters)
      attempted = p.ops.size
      failed = attempted - outputs.size
      checkRound(p)(outputs)
      problems ++= layerProblems
      trace.write(Paths.get(arg("spans")))
      metrics ++= trace.metrics
    } else {
      val roundSeconds = mutable.ArrayBuffer.empty[Double]
      val opSeconds = mutable.LinkedHashMap.empty[String, Vector[Double]]
      while (roundSeconds.isEmpty || roundSeconds.sum < seconds) {
        val outputs = Map.newBuilder[String, p.Out]
        var roundNs = 0L
        for ((name, run) <- p.ops) {
          attempted += 1
          val t0 = System.nanoTime()
          try outputs += name -> run()
          catch {
            case NonFatal(e) =>
              failed += 1
              Console.err.println(s"operation $name failed: $e")
          }
          val ns = System.nanoTime() - t0
          opSeconds(name) = opSeconds.getOrElse(name, Vector.empty) :+ ns / 1e9
          roundNs += ns
        }
        roundSeconds += roundNs / 1e9
        val t0 = System.nanoTime()
        checkRound(p)(outputs.result())
        Console.err.println(f"perfbench: round took ${roundNs / 1e9}%.2f s, checks ${(System.nanoTime() - t0) / 1e9}%.2f s")
      }
      for ((name, secs) <- opSeconds)
        Console.err.println(s"perfbench: $name took ${secs.map(x => f"$x%.3f").mkString(" ")} s")
      metrics("round_s") = median(roundSeconds.toVector)
      metrics("setup_s") = median(setups.toVector)
    }
    spark.stop()

    problems.take(20).foreach(s => Console.err.println(s"check failed: $s"))
    val ms = metrics.map { case (k, v) => s""""$k": $v""" }.mkString(", ")
    println(s"""{"correct": ${problems.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}""")
  }

  def median(xs: Vector[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
