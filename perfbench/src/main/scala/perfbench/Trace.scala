package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spans and counts of one traced run, kept in memory and written out when
  * the run ends.
  *
  * A span has a name, a start, an end and the span it was opened in. Its
  * duration is summed into the metric `<name>_s`, and into
  * `<name>_s.<dataset>` when the span carries a dataset. Counts are summed
  * into `<name>` and `<name>.<dataset>` the same way; maxima and rates are
  * set directly.
  */
final class Trace {
  import Trace.Span

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private var nextId = 1
  private var open = 0

  /** Runs `body` inside a span named `name`. */
  def span[A](name: String, dataset: String = "")(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open
    open = id
    val start = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, name, dataset, start, System.nanoTime())
      open = parent
    }
  }

  /** Adds `value` to the count `name` (and to `name.<dataset>`). */
  def count(name: String, value: Double, dataset: String = ""): Unit = {
    counts(name) = counts.getOrElse(name, 0.0) + value
    if (dataset.nonEmpty) counts(s"$name.$dataset") = counts.getOrElse(s"$name.$dataset", 0.0) + value
  }

  /** Sets the metric `name` to `value`, for maxima and rates. */
  def set(name: String, value: Double): Unit = counts(name) = value

  /** Seconds spent in the most recently closed span named `name`. */
  def lastSeconds(name: String, dataset: String = ""): Double =
    spans.findLast(s => s.name == name && s.dataset == dataset)
      .map(s => (s.end - s.start) / 1e9).getOrElse(0.0)

  /** Every metric of the trace: summed span durations and counts. */
  def metrics: Map[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    for (s <- spans) {
      val d = (s.end - s.start) / 1e9
      out(s"${s.name}_s") = out.getOrElse(s"${s.name}_s", 0.0) + d
      if (s.dataset.nonEmpty)
        out(s"${s.name}_s.${s.dataset}") = out.getOrElse(s"${s.name}_s.${s.dataset}", 0.0) + d
    }
    out ++= counts
    out.toMap
  }

  /** Writes one JSON object per span, in the order they closed. */
  def write(path: Path): Unit = {
    val t0 = spans.map(_.start).minOption.getOrElse(0L)
    val lines = spans.map { s =>
      s"""{"id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", "dataset": "${s.dataset}", """ +
        s""""start_s": ${(s.start - t0) / 1e9}, "end_s": ${(s.end - t0) / 1e9}}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Trace {
  private final case class Span(id: Int, parent: Int, name: String, dataset: String, start: Long, end: Long)

  /** Runs `body` while sampling the calling thread's stack every
    * `intervalMs`. Returns, for each `(class, method)` frame, the share of
    * samples whose stack holds it (the first match wins), and last the share
    * holding none of them. This attributes the time of one program call to
    * the functions it calls, without spans inside the program.
    */
  def sampled[A](frames: Seq[(String, String)], intervalMs: Long = 2)(body: => A): (A, Vector[Double]) = {
    val target = Thread.currentThread()
    val hits = new Array[Long](frames.size + 1)
    @volatile var running = true
    val sampler = new Thread(() => {
      while (running) {
        val stack = target.getStackTrace
        val i = frames.indexWhere { case (c, m) => stack.exists(f => f.getClassName == c && f.getMethodName == m) }
        hits(if (i < 0) frames.size else i) += 1
        Thread.sleep(intervalMs)
      }
    })
    sampler.setDaemon(true)
    sampler.start()
    val a = try body finally { running = false; sampler.join() }
    val total = math.max(1L, hits.sum).toDouble
    (a, hits.toVector.map(_ / total))
  }
}

/** Spark scheduler counters, read between operations. */
final class SparkCounters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val taskRunMs = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      taskRunMs.addAndGet(m.executorRunTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  private def snapshot(spark: SparkSession): Vector[Long] = {
    ListenerBusAccess.drain(spark.sparkContext)
    Vector(jobs.get, tasks.get, taskRunMs.get, shuffleBytes.get)
  }

  /** Runs `body` and counts the Spark work it caused into `trace`, as
    * `<prefix>.jobs`, `<prefix>.tasks`, `<prefix>.task_run_s` and
    * `<prefix>.shuffle_bytes`.
    */
  def around[A](spark: SparkSession, trace: Trace, prefix: String, dataset: String = "")(body: => A): A = {
    val before = snapshot(spark)
    val a = body
    val d = snapshot(spark).zip(before).map { case (x, y) => (x - y).toDouble }
    trace.count(s"$prefix.jobs", d(0), dataset)
    trace.count(s"$prefix.tasks", d(1), dataset)
    trace.count(s"$prefix.task_run_s", d(2) / 1000.0, dataset)
    trace.count(s"$prefix.shuffle_bytes", d(3), dataset)
    a
  }
}
