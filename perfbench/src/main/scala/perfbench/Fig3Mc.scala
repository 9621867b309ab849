package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.{Clauses, FD, FDs, Instance, MonteCarlo, PlaqueTest, Pos}
import repro.data.Datasets
import repro.exp.Experiments
import repro.fdiscovery.FDDiscovery

/** `fig3-mc`: the paper's Fig. 3 pipeline on the five dataset mimics. Each
  * dataset is one operation: DataFrame → `FDDiscovery.discover` →
  * `PlaqueTest.run` at the paper's 100k Monte-Carlo iterations, seeded with
  * the workload seed.
  *
  * Checks, from raw column values:
  *  - satellites, adult, iris: every cell is within Theorem 3.6's ε of the
  *    closed form ([[Reference.closedForm]]), at confidence δ = 10⁻³ split
  *    over the cells of the matrix;
  *  - echocardiogram, ncvoter: a cell is 1 iff no other row agrees with its
  *    row on the LHS of a discovered FD onto its column (Prop. 3.2); every
  *    other cell is at most the tightest unary-FD bound
  *    [[Reference.unaryBound]] plus ε; the constant `name`/`state` columns
  *    stay below 0.05;
  *  - every discovered FD holds in the raw data.
  *
  * The traced run also times the data-scale scan layers ([[ScaleScan]]).
  */
object Fig3Mc extends Workload {

  val Iterations = 100000L
  val Datasets5: Vector[String] = Vector("satellites", "adult", "echocardiogram", "ncvoter", "iris")
  private val ClosedForm = Set("satellites", "adult", "iris")
  private val ZeroColumn = Map("echocardiogram" -> "name", "ncvoter" -> "state")
  private val Delta = 1e-3

  /** Warm-up inputs: 30-row prefixes of the mimic with the most FDs and of
    * the one with the most Monte-Carlo work, at 5k iterations. The measured
    * inputs are the full mimics.
    */
  private val WarmupDatasets = Vector("ncvoter", "echocardiogram")
  private val WarmupRows = 30
  private val WarmupIterations = 5000L

  final case class Output(fds: Vector[FD], result: PlaqueTest.Result)

  /** The stages `PlaqueTest.run` calls; time in none of them is its self time. */
  private val RunChildren = Seq(
    "repro.core.FDs$" -> "closure",
    "repro.core.Clauses$" -> "forAllPositions",
    "repro.core.MonteCarlo$" -> "estimateSpark",
  )

  private def plaqueTest(spark: SparkSession, df: DataFrame, name: String, iters: Long, seed: Long): Output = {
    val (inst, fds) = FDDiscovery.discover(df, "id", Experiments.maxLhsFor(name))
    Output(fds, PlaqueTest.run(spark, inst, fds, iters, seed))
  }

  def setup(spark: SparkSession, seed: Long): Prepared = {
    val frames = Datasets.byName(spark)
    for (n <- WarmupDatasets)
      plaqueTest(spark, frames(n).where(col("id") < WarmupRows), n, WarmupIterations, seed)
    new Fig3Prepared(spark, frames, seed)
  }

  final class Fig3Prepared(spark: SparkSession, frames: Map[String, DataFrame], seed: Long) extends Prepared {
    type Out = Output

    def ops: Vector[(String, () => Output)] =
      Datasets5.map(n => n -> (() => plaqueTest(spark, frames(n), n, Iterations, seed)))

    private lazy val tables: Map[String, Table] = frames.map { case (n, df) => n -> Table.of(df) }
    private lazy val unary: Map[String, Vector[Vector[Int]]] = tables.map { case (n, t) => n -> Reference.unaryLhs(t) }
    private lazy val closedForm: Map[String, Vector[Vector[Double]]] =
      ClosedForm.toVector.map(n => n -> Reference.closedFormMatrix(tables(n), unary(n))).toMap

    def check(outputs: Map[String, Output]): Vector[String] =
      outputs.toVector.flatMap { case (n, out) =>
        val t = tables(n)
        val res = out.result
        val eps = Reference.hoeffdingEps(Iterations, Delta / t.rows.size / t.attrs.size)
        val fdProblems = out.fds.filterNot(f => Reference.holds(t, f.lhs.toSeq, f.rhs))
          .map(f => s"$n: discovered FD ${f.render(t.attrs)} does not hold")
        if (res.inst.attrs != t.attrs || res.entropies.size != t.rows.size)
          Vector(s"$n: result columns or rows differ from the input")
        else if (ClosedForm(n))
          fdProblems ++ Reference.compare(n, res.entropies, closedForm(n), eps)
        else fdProblems ++ boundProblems(n, t, out, eps)
      }

    private def boundProblems(n: String, t: Table, out: Output, eps: Double): Vector[String] = {
      val m = out.result.entropies
      val zero = t.attrs.indexOf(ZeroColumn(n))
      val byRhs = out.fds.filterNot(_.trivial).groupBy(_.rhs)
      val cells = for (j <- t.rows.indices.toVector; b <- t.attrs.indices) yield {
        val unique = byRhs.getOrElse(b, Vector.empty).forall(f => t.groupSize(f.lhs.toSeq.sorted, j) == 1)
        val bounds = unary(n)(b).map(a => t.groupSize(Seq(a), j)).filter(_ >= 2).map(Reference.unaryBound)
        val v = m(j)(b)
        if (unique && v != 1.0) Some(s"$n: unique cell ($j,$b) is $v, not 1")
        else if (!unique && !(v < 1.0)) Some(s"$n: non-unique cell ($j,$b) is $v")
        else if (!unique && bounds.nonEmpty && v > bounds.min + eps) Some(s"$n: cell ($j,$b) is $v above ${bounds.min} + ε")
        else if (b == zero && !(v < 0.05)) Some(s"$n: constant-column cell ($j,$b) is $v, not below 0.05")
        else None
      }
      cells.flatten.take(5)
    }

    def perturbations(outputs: Map[String, Output]): Vector[Map[String, Output]] =
      outputs.toVector.map { case (n, out) =>
        Map(n -> out.copy(result = out.result.copy(entropies = Reference.perturb(out.result.entropies))))
      }

    def traced(trace: Trace, counters: SparkCounters): (Map[String, Output], Vector[String]) = {
      val frames = trace.span("data.generate")(Datasets.byName(spark))
      val outputs = Datasets5.map { n =>
        val df = frames(n)
        val out = counters.around(spark, trace, "spark", n) {
          trace.span("fig3.plaque_mc", n) {
            val (inst, fds) = trace.span("fdiscovery.discover", n)(FDDiscovery.discover(df, "id", Experiments.maxLhsFor(n)))
            trace.count("fdiscovery.fds", fds.size, n)
            val (res, shares) = trace.span("core.PlaqueTest.run", n) {
              Trace.sampled(RunChildren)(PlaqueTest.run(spark, inst, fds, Iterations, seed))
            }
            trace.count("core.PlaqueTest.self_s", shares.last * trace.lastSeconds("core.PlaqueTest.run", n), n)
            Output(fds, res)
          }
        }
        layers(trace, n, df, out.fds)
        n -> out
      }.toMap
      val m = trace.metrics
      trace.set("core.MonteCarlo.samples_per_s", m("core.MonteCarlo.samples") / m("core.MonteCarlo.kernel_s"))
      trace.set("core.Clauses.max_union_cells", Datasets5.map(n => m(s"core.Clauses.max_union_cells.$n")).max)
      (outputs, ScaleScan.traced(spark, seed, trace, counters))
    }

    /** The stages of `PlaqueTest.run`, each called on its own. `run`'s self
      * time is measured inside the call itself, by stack sampling.
      */
    private def layers(trace: Trace, n: String, df: DataFrame, fds: Vector[FD]): Unit = {
      val inst = trace.span("core.Instance.encode", n)(Instance.fromDataFrame(df, "id"))
      val clauses = trace.span("core.PlaqueTest.layers", n) {
        val closed = trace.span("core.FD.closure", n)(FDs.closure(fds))
        trace.count("core.FD.closure_in", fds.size, n)
        trace.count("core.FD.closure_out", closed.size, n)
        val clauses = trace.span("core.Clauses.build", n) {
          Clauses.forAllPositions(inst, closed).filter(_._2.nonEmpty)
        }
        val unions = clauses.values.map(_.flatten.toSet.size)
        trace.count("core.Clauses.clauses", clauses.values.map(_.size).sum, n)
        trace.count("core.Clauses.union_cells", unions.sum, n)
        trace.set(s"core.Clauses.max_union_cells.$n", unions.maxOption.getOrElse(0).toDouble)
        trace.span("core.MonteCarlo.spark", n) {
          MonteCarlo.estimateSpark(spark, clauses.view.mapValues(v => v: Seq[Set[Pos]]).toMap, Iterations, seed)
        }
        clauses
      }

      val masks = trace.span("core.MonteCarlo.mask", n)(clauses.values.toVector.map(MonteCarlo.mask))
      trace.span("core.MonteCarlo.kernel", n)(masks.foreach(MonteCarlo.estimate(_, Iterations, seed)))
      val samples = masks.size * Iterations.toDouble
      trace.count("core.MonteCarlo.samples", samples, n)
      trace.set(s"core.MonteCarlo.samples_per_s.$n", samples / trace.lastSeconds("core.MonteCarlo.kernel", n))
    }
  }
}
