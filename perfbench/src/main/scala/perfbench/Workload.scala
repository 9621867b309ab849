package perfbench

import org.apache.spark.sql.SparkSession

/** A workload's inputs after set-up: the operations of one round, the checks
  * on their outputs, and the traced variant of a round.
  */
trait Prepared {
  type Out

  /** The operations of one round, by name, in the order they run. */
  def ops: Vector[(String, () => Out)]

  /** Problems found in one round's outputs, keyed by operation name; an
    * operation that failed has no entry. Empty when every check passes.
    */
  def check(outputs: Map[String, Out]): Vector[String]

  /** Copies of one round's outputs with a single value altered; [[check]]
    * must reject each of them.
    */
  def perturbations(outputs: Map[String, Out]): Vector[Map[String, Out]]

  /** One round in which each layer is also called on its own, inside spans.
    * Returns the outputs of the round's operations for checking, and the
    * problems found by checks on layer calls that have no round output.
    */
  def traced(trace: Trace, counters: SparkCounters): (Map[String, Out], Vector[String])
}

trait Workload {
  /** Generates and encodes the inputs for `seed` and warms the JIT and
    * Spark's code generation up on other inputs.
    */
  def setup(spark: SparkSession, seed: Long): Prepared
}
