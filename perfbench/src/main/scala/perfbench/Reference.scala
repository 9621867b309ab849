package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** A relation as raw string values, read straight from a DataFrame in `id`
  * order. The checks work on this form, never on the program's `Instance`
  * encoding, so an encoding fault cannot hide itself.
  */
final case class Table(attrs: Vector[String], rows: Vector[Vector[String]]) {
  def prefix(n: Int): Table = Table(attrs, rows.take(n))

  private val groupSizes = scala.collection.mutable.Map.empty[Seq[Int], Vector[Int]]

  /** Rows whose values on `cols` equal row `j`'s, `j` itself included. */
  def groupSize(cols: Seq[Int], j: Int): Int =
    groupSizes.getOrElseUpdate(cols, {
      val sizes = rows.groupBy(r => cols.map(r)).view.mapValues(_.size).toMap
      rows.map(r => sizes(cols.map(r)))
    })(j)
}

object Table {
  def of(df: DataFrame, orderBy: String = "id"): Table = {
    val cols = df.columns.filterNot(_ == orderBy).toVector
    val rows = df.orderBy(orderBy).select(cols.map(col): _*).collect()
      .map(r => cols.indices.map(i => String.valueOf(r.get(i))).toVector).toVector
    Table(cols, rows)
  }
}

/** Reference values computed apart from the program, from raw column values
  * and the paper's statements.
  */
object Reference {

  /** Does `lhs → rhs` hold in `t` (Definition 2.3)? */
  def holds(t: Table, lhs: Seq[Int], rhs: Int): Boolean =
    t.rows.groupBy(r => lhs.map(r)).valuesIterator.forall(_.map(_(rhs)).distinct.size == 1)

  /** For each column `b`, the columns `a ≠ b` with `a → b` holding in `t`. */
  def unaryLhs(t: Table): Vector[Vector[Int]] =
    t.attrs.indices.toVector.map(b => t.attrs.indices.toVector.filter(a => a != b && holds(t, Seq(a), b)))

  /** Information content of cell `(j, b)` when every FD onto `b` that has a
    * duplicate group is unary, with `lhs` the unary LHS columns onto `b`:
    *
    * `INF = 2^-|L| · Σ_{S⊆L} Π_{j'≠j} (½ + 2^-(1+|W_S(j')|))`
    *
    * where `S` is the set of row `j`'s LHS cells that are deleted and
    * `W_S(j')` holds the columns of `L∖S` on which row `j'` agrees with row
    * `j`. Row `j'` keeps the FD `a → b` broken only if its own `b` cell or all
    * its agreeing LHS cells are deleted. LHS columns on which no other row
    * agrees with row `j` contribute a factor 1 and are left out of `L`.
    */
  def closedForm(t: Table, lhs: Seq[Int], j: Int): Double = {
    val row = t.rows(j)
    val l = lhs.filter(a => t.groupSize(Seq(a), j) > 1).toVector
    if (l.isEmpty) return 1.0
    require(l.size <= 20, s"closed form over ${l.size} LHS columns refused")
    val patterns = t.rows.indices.iterator.filter(_ != j).map { j2 =>
      l.indices.foldLeft(0)((m, i) => if (t.rows(j2)(l(i)) == row(l(i))) m | (1 << i) else m)
    }.filter(_ != 0).toVector.groupBy(identity).view.mapValues(_.size).toVector
    var sum = 0.0
    for (s <- 0 until (1 << l.size)) {
      var prod = 1.0
      for ((m, c) <- patterns)
        prod *= math.pow(0.5 + math.pow(2.0, -(1 + Integer.bitCount(m & ~s))), c)
      sum += prod
    }
    sum / (1 << l.size)
  }

  /** Closed-form matrix of a whole table, `lhs` as in [[unaryLhs]]. */
  def closedFormMatrix(t: Table, lhs: Vector[Vector[Int]]): Vector[Vector[Double]] =
    Vector.tabulate(t.rows.size, t.attrs.size)((j, b) => closedForm(t, lhs(b), j))

  /** Upper bound on a non-unique cell `(j, b)` from one unary FD `a → b`
    * whose group has `g ≥ 2` rows: with only that FD's clauses,
    * `INF = ½ + ½·(¾)^(g−1)`, and further clauses can only lower it.
    */
  def unaryBound(g: Int): Double = 0.5 + 0.5 * math.pow(0.75, g - 1)

  /** Hoeffding accuracy of `n` samples at confidence `1 − delta`
    * (Theorem 3.6 solved for ε).
    */
  def hoeffdingEps(n: Long, delta: Double): Double =
    math.sqrt(2.0 * math.log(2.0 / delta) / n)

  /** Figure 1b of the paper: the CD collection under its six genuine FDs,
    * printed at one decimal.
    */
  val Fig1b: Vector[Vector[Double]] = Vector(
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 0.8, 0.8, 0.6, 0.8, 1.0, 1.0),
    Vector(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    Vector(1.0, 1.0, 1.0, 0.7, 1.0, 1.0, 1.0),
  )

  /** Problems where `got` differs from `want` by more than `tol`. */
  def compare(label: String, got: Vector[Vector[Double]], want: Vector[Vector[Double]], tol: Double): Vector[String] =
    if (got.size != want.size || got.zip(want).exists { case (a, b) => a.size != b.size })
      Vector(s"$label: matrix shape differs from the reference")
    else
      (for {
        j <- want.indices.toVector
        k <- want(j).indices
        if !(math.abs(got(j)(k) - want(j)(k)) <= tol)
      } yield f"$label: cell ($j,$k) is ${got(j)(k)}%.15f, reference ${want(j)(k)}%.15f").take(5)

  /** One perturbed copy of a matrix: its lowest cell below 1 is raised by
    * 0.1, more than any tolerance the checks allow.
    */
  def perturb(m: Vector[Vector[Double]]): Vector[Vector[Double]] = {
    val cells = for (j <- m.indices; k <- m(j).indices if m(j)(k) < 1.0) yield (j, k)
    if (cells.isEmpty) m
    else {
      val (j, k) = cells.minBy { case (j, k) => m(j)(k) }
      m.updated(j, m(j).updated(k, m(j)(k) + 0.1))
    }
  }
}
