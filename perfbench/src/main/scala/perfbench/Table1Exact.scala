package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.{Clauses, ExactEntropy, FD, FDs, Instance, NaiveEntropy, PlaqueTest, Pos, Reduction, Uniqueness}
import repro.data.Datasets
import repro.fdiscovery.FDDiscovery

/** `table1-exact`: the paper's Table 1 on satellites prefixes, without Spark
  * or sampling. One round runs `ExactEntropy.optimized` on the prefixes of
  * 1 to 4 rows, `ExactEntropy.naive` on the prefixes of 1 and 2 rows, and `PlaqueTest.runExact` on full satellites,
  * full adult and the Fig. 1 CD instance under its six genuine FDs (the one
  * input whose closure derives new FDs). FDs are discovered once on the full
  * data at set-up, as in Table 1. The workload has no random input, so the
  * seed changes nothing.
  *
  * Checks: every satellites and adult value equals the closed form
  * ([[Reference.closedForm]]) to 1e-12, with the unary FDs that hold in the
  * full data; naive and optimized agree exactly on the prefixes where both
  * run; the CD matrix matches the paper's Fig. 1b at its one-decimal
  * rounding.
  */
object Table1Exact extends Workload {

  /** The 5-row prefix, the deepest that finishes, takes about 26 s on 4
    * cores; the run-time budget of the benchmark leaves no room for it.
    */
  val OptimizedPrefixes: Vector[Int] = (1 to 4).toVector
  val NaivePrefixes: Vector[Int] = Vector(1, 2)
  private val Tolerance = 1e-12

  type Matrix = Vector[Vector[Double]]

  /** A prepared input: raw values for the checks, the encoded instance and
    * the FDs handed to the program.
    */
  final case class Input(table: Table, inst: Instance, fds: Vector[FD])

  private def prepare(spark: SparkSession, name: String): Input = {
    val df = Datasets.byName(spark)(name)
    val inst = Instance.fromDataFrame(df, "id")
    Input(Table.of(df), inst, FDDiscovery.discoverLocal(inst, maxLhs = 2))
  }

  private def prefix(in: Input, n: Int): Input =
    Input(in.table.prefix(n), Instance(in.inst.attrs, in.inst.rows.take(n)), in.fds)

  private def window(in: Input, from: Int, n: Int): Input =
    Input(Table(in.table.attrs, in.table.rows.slice(from, from + n)),
      Instance(in.inst.attrs, in.inst.rows.slice(from, from + n)), in.fds)

  private def matrix(inst: Instance, r: ExactEntropy.Result): Matrix = {
    if (r.aborted) throw new IllegalStateException("exact run aborted")
    Vector.tabulate(inst.nRows, inst.arity)((j, k) => r.entropies(Pos(j, k)))
  }

  private def optimized(in: Input): Matrix = matrix(in.inst, ExactEntropy.optimized(in.inst, in.fds))
  private def naive(in: Input): Matrix = matrix(in.inst, ExactEntropy.naive(in.inst, in.fds))
  private def clause(in: Input): Matrix = PlaqueTest.runExact(in.inst, in.fds).entropies

  def setup(spark: SparkSession, seed: Long): Prepared = {
    val satellites = prepare(spark, "satellites")
    val adult = prepare(spark, "adult")
    val cdDf = Datasets.cdCollection(spark)
    val cdInst = Instance.fromDataFrame(cdDf, "id")
    val cd = Input(Table.of(cdDf), cdInst, FDs.byName(cdInst.attrs, Datasets.cdGenuineFds))
    // Warm-up on other inputs: windows of satellites rows that start at the
    // radius-3.0 group, past the measured prefixes.
    optimized(window(satellites, 6, 2))
    naive(window(satellites, 6, 2))
    clause(window(satellites, 6, 24))
    new Table1Prepared(satellites, adult, cd)
  }

  final class Table1Prepared(satellites: Input, adult: Input, cd: Input) extends Prepared {
    type Out = Matrix

    /** Operation name, configuration and input. */
    private val inputs: Vector[(String, String, Input)] =
      OptimizedPrefixes.map(n => (s"optimized-$n", "opt", prefix(satellites, n))) ++
        NaivePrefixes.map(n => (s"naive-$n", "naive", prefix(satellites, n))) ++
        Vector(("clause-satellites", "clause", satellites), ("clause-adult", "clause", adult), ("clause-cd", "clause", cd))

    private def run(config: String, in: Input): Matrix = config match {
      case "opt"   => optimized(in)
      case "naive" => naive(in)
      case _       => clause(in)
    }

    def ops: Vector[(String, () => Matrix)] = inputs.map { case (name, config, in) => name -> (() => run(config, in)) }

    private lazy val unary = Reference.unaryLhs(satellites.table)
    private lazy val reference: Map[String, Matrix] =
      inputs.collect {
        case (name, _, in) if name != "clause-cd" =>
          val lhs = if (name == "clause-adult") Reference.unaryLhs(adult.table) else unary
          name -> Reference.closedFormMatrix(in.table, lhs)
      }.toMap + ("clause-cd" -> Reference.Fig1b)

    def check(outputs: Map[String, Matrix]): Vector[String] = {
      val values = outputs.toVector.flatMap {
        case ("clause-cd", m) => Reference.compare("clause-cd", m.map(_.map(v => math.rint(v * 10) / 10)), Reference.Fig1b, 0.0)
        case (name, m)        => Reference.compare(name, m, reference(name), Tolerance)
      }
      val agree = NaivePrefixes.flatMap { n =>
        (outputs.get(s"naive-$n"), outputs.get(s"optimized-$n")) match {
          case (Some(a), Some(b)) if a != b => Some(s"naive and optimized differ on the $n-row prefix")
          case _                            => None
        }
      }
      values ++ agree
    }

    def perturbations(outputs: Map[String, Matrix]): Vector[Map[String, Matrix]] =
      outputs.toVector.collect { case (name, m) if m.exists(_.exists(_ < 1.0)) => Map(name -> Reference.perturb(m)) }

    def traced(trace: Trace, counters: SparkCounters): (Map[String, Matrix], Vector[String]) = {
      val outputs = inputs.map { case (name, config, in) =>
        val out = trace.span(s"table1.exact_$config")(run(config, in))
        trace.span("table1.layers") {
          val closed = trace.span("core.FD.closure")(FDs.closure(in.fds))
          trace.count("core.FD.closure_in", in.fds.size)
          trace.count("core.FD.closure_out", closed.size)
          config match {
            case "opt"   => optimizedLayers(trace, in.inst, closed)
            case "naive" => naiveLayers(trace, in.inst, closed)
            case _       => clauseLayers(trace, in.inst, closed)
          }
        }
        name -> out
      }.toMap
      val m = trace.metrics
      trace.set("core.NaiveEntropy.subsets_per_s", m("core.NaiveEntropy.subsets") / m("core.NaiveEntropy.enumerate_s"))
      (outputs, Vector.empty)
    }

    private def optimizedLayers(trace: Trace, inst: Instance, closed: Vector[FD]): Unit = {
      val nonUnique = trace.span("core.Uniqueness.nonunique")(Uniqueness.nonUniquePositions(inst, closed))
      trace.count("core.Uniqueness.nonunique_cells", nonUnique.size)
      if (nonUnique.nonEmpty) {
        val red = trace.span("core.Reduction.reduce")(Reduction.reduce(inst, closed))
        trace.count("core.Reduction.sub_cells", red.sub.nCells)
        val subFds = red.mapFds(closed)
        trace.span("core.NaiveEntropy.enumerate") {
          for (p <- nonUnique) NaiveEntropy.compute(red.sub, subFds, red.toSub(p).get, maxCells = 62)
        }
        trace.count("core.NaiveEntropy.subsets", nonUnique.size * math.pow(2, red.sub.nCells - 1))
      }
    }

    private def naiveLayers(trace: Trace, inst: Instance, closed: Vector[FD]): Unit = {
      trace.span("core.NaiveEntropy.enumerate")(NaiveEntropy.matrix(inst, closed))
      trace.count("core.NaiveEntropy.subsets", inst.nCells * math.pow(2, inst.nCells - 1))
    }

    private var maxUnion = 0

    private def clauseLayers(trace: Trace, inst: Instance, closed: Vector[FD]): Unit = {
      val clauses = trace.span("core.Clauses.build")(Clauses.forAllPositions(inst, closed).filter(_._2.nonEmpty))
      val unions = clauses.values.map(_.flatten.toSet.size)
      trace.count("core.Clauses.clauses", clauses.values.map(_.size).sum)
      trace.count("core.Clauses.union_cells", unions.sum)
      maxUnion = math.max(maxUnion, unions.maxOption.getOrElse(0))
      trace.set("core.Clauses.max_union_cells", maxUnion)
      trace.span("core.ExactEntropy.via_clauses")(clauses.values.foreach(ExactEntropy.viaClauses(_)))
    }
  }
}
