package repro.cmpbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.{DataFrame, ReproBridge, Row, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.Join

import repro.catalyst.{CompareExtensions, CompareNode, TrendCollector}
import repro.core.{CompareOutput, PrunedTopK, TopK, TrendRow}

/** Runs one workload, closed loop with one client: the next query is sent
  * only after the previous one's rows are collected.
  *
  *   --trace 0  timed loop, untraced; prints the end-to-end metrics.
  *   --trace 1  alternates an untraced query with one driven as its layer
  *              calls under spans; prints the per-layer metrics.
  *
  * Every result is checked against [[ResultCheck]]'s independent reference.
  * The last stdout line is the JSON result.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, cores: Int,
                        gitSha: String, sourceSha: String, out: String)

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      get("cores").toInt, m.getOrElse("git-sha", "none"), m.getOrElse("source-sha", "none"), get("out"))
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val json = new Bench(o, BenchWorkloads.byName(o.workload)).run()
    println(json)
    System.out.flush()
    sys.exit(0)
  }
}

/** A named value with its unit; counts print as integers. */
final case class Metric(name: String, value: Double, unit: String, base: String = "") {
  require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
  private def integral = unit == "count" || unit == "bytes"
  def valueString: String = if (integral) value.toLong.toString else value.toString
  def line: String = f"$name%-38s $valueString $unit${if (base.isEmpty) "" else s"  ($base)"}"
  def json: String = s""""$name": {"value": $valueString, "unit": "$unit"}"""
}

final class Bench(o: Main.Opts, w: BenchWorkload) {

  /** Set-up is repeated this often in a run and reported as the median. */
  private val SetupRounds = 3
  /** Warm-up stops once it has run at least `WarmupMinS` seconds of queries
    * and one query is within `SteadyShare` of the one before, or after
    * `WarmupMaxS` seconds. Short queries keep speeding up for dozens of runs
    * (JIT), so a query count alone ends their warm-up too early.
    */
  private val SteadyShare = 0.20
  private val WarmupMin = 2
  private val WarmupMinS = 4.0
  private val WarmupMaxS = 8.0
  /** A tail percentile is reported only with this many samples beyond it. */
  private val TailSamples = 10

  private var spark: SparkSession = _
  private var input: DataFrame = _
  private var references: IndexedSeq[ResultCheck.Reference] = _
  private var inputSum = 0.0
  private var sent = 0L
  private var attempted = 0L
  private var failed = 0L

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def newSession(): SparkSession = {
    val b = SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName(s"cmpbench-${w.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"${o.out}/spark-local")
      .config("spark.sql.warehouse.dir", s"${o.out}/spark-warehouse")
    if (w.sqlExtensions) b.withExtensions(new CompareExtensions)
    b.getOrCreate()
  }

  /** The variant the next query takes: queries cycle through them. */
  private def nextVariant(): Int = { val v = (sent % w.variants).toInt; sent += 1; v }

  private def runQuery(v: Int): Array[Row] = w.query(spark, input, v).collect()

  /** Session start, data generation and caching, and warm-up until steady.
    * The first round also builds the reference (untimed): done before any
    * warm-up, its allocation and code paths do not disturb the timed loop.
    * Later rounds regenerate the same input from the same seed.
    */
  private def setupRound(round: Int): Double = {
    if (spark != null) spark.stop()
    val t0 = System.nanoTime()
    spark = newSession()
    val t1 = System.nanoTime()
    input = w.load(spark, o.seed)
    val t2 = System.nanoTime()
    val refNs = if (round > 1) 0L else {
      references = ResultCheck.references(input, w.refs)
      inputSum = w.inputSum(input)
      val ns = System.nanoTime() - t2
      println(f"check.reference_s       ${ns / 1e9}%.3f s (benchmark cost, outside every timed region)")
      ns
    }
    val warm = ArrayBuffer.empty[Double]
    def steady = warm.size >= WarmupMin && warm.sum >= WarmupMinS &&
      math.abs(warm.last - warm(warm.size - 2)) <= SteadyShare * warm(warm.size - 2)
    while (!steady && warm.sum < WarmupMaxS) {
      val v = nextVariant()
      val q0 = System.nanoTime()
      runQuery(v)
      warm += secondsSince(q0)
    }
    val s = secondsSince(t0) - refNs / 1e9
    println(f"setup round $round: $s%.3f s = session ${(t1 - t0) / 1e9}%.3f s + data ${(t2 - t1) / 1e9}%.3f s" +
      f" + warm-up ${warm.sum}%.3f s (${warm.size} queries, last ${warm.last}%.3f s)")
    s
  }

  private def check(what: String, v: Int, rows: Try[Array[Row]]): Unit = {
    attempted += 1
    val problems = rows match {
      case Success(r) => ResultCheck.verify(ResultCheck.rowsOf(r), references(v), w.refs(v).k)
      case Failure(e) => Seq(s"query threw $e")
    }
    if (problems.nonEmpty) {
      failed += 1
      println(s"CHECK FAILED ($what): ${problems.size} problems")
      problems.take(20).foreach(p => println(s"  $p"))
      if (failed == 1) rows.foreach { r =>
        val shown = 10
        println(s"  returned rows (first $shown of ${r.length}):")
        r.take(shown).foreach(x => println(s"    ${x.mkString(", ")}"))
        println(s"  reference best $shown (score: pair):")
        references(v).best(shown).foreach { case (k, score) => println(s"    $score: $k") }
      }
    }
  }

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def printRecord(): Unit = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .find(_.startsWith("-Xmx")).getOrElse("default")
    println(s"run.workload            ${w.name}: ${w.sizes}")
    println(s"run.git_sha             ${o.gitSha}")
    println(s"run.source_sha256       ${o.sourceSha} (program + benchmark sources)")
    println(s"run.cores               ${o.cores} (local[${o.cores}], default parallelism " +
      s"${spark.sparkContext.defaultParallelism}, SPARK_GRAFT_CPUS=${sys.env.getOrElse("SPARK_GRAFT_CPUS", "unset")})")
    println(s"run.driver_heap         $xmx (max ${Runtime.getRuntime.maxMemory >> 20} MB)")
    println(s"run.jdk                 ${System.getProperty("java.version")}")
    println(s"run.spark               ${spark.version}")
    println(s"run.seed                ${o.seed}")
    println(s"run.shuffle_partitions  ${spark.conf.get("spark.sql.shuffle.partitions")}")
    println(s"run.load_model          closed loop, 1 client, ${o.seconds} s")
  }

  def run(): String = {
    val setups = (1 to SetupRounds).map(setupRound)
    printRecord()

    val finalSum = w.inputSum(input)
    require(ResultCheck.close(finalSum, inputSum),
      s"input of the last set-up round (sum $finalSum) differs from the first ($inputSum)")
    println(s"input.rows              ${input.count()}")
    println(s"input.variants          ${w.variants}")
    println(s"input.trends            ${references.map(_.trends).sum} (distinct constraint values, summed over (g, m) and variants)")
    println(s"input.pairs             ${references.map(_.pairs).sum} (summed over variants)")
    println(s"input.sum_${w.fingerprintMeasure}  $finalSum")

    val metrics = if (o.trace) tracedLoop() else timedLoop(median(setups))
    println(f"error_rate              ${failed.toDouble / attempted} ($failed of $attempted queries)")
    metrics.foreach(m => println(m.line))
    spark.stop()
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.map(_.json).mkString(", ")}}}"""
  }

  /** Untraced closed loop: the end-to-end metrics. */
  private def timedLoop(setupS: Double): Seq[Metric] = {
    val lat = ArrayBuffer.empty[Double]
    heapPools.foreach(_.resetPeakUsage())
    val t0 = System.nanoTime()
    // Whole cycles of the variants, so every run weighs them alike.
    while (lat.isEmpty || secondsSince(t0) < o.seconds || lat.size % w.variants != 0) {
      val v = nextVariant()
      val q0 = System.nanoTime()
      val rows = Try(runQuery(v))
      lat += secondsSince(q0)
      check(s"query ${lat.size}", v, rows)
    }
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    println(s"query.latencies_s       ${lat.map(x => f"$x%.3f").mkString(" ")}")
    println(f"heap_peak_mb            $heapPeakMb%.1f MB (sum of heap pool peaks during the loop; not gated: it varies" +
      " with GC timing more than the bound allows, see jvm.heap_peak_mb)")
    val sorted = lat.sorted
    val tailRank = (0.9 * sorted.size).ceil.toInt
    if (sorted.size - tailRank >= TailSamples)
      println(s"query_p90_s             ${sorted(tailRank - 1)} s (${sorted.size} queries, ${sorted.size - tailRank} beyond)")
    else
      println(s"query_p90_s             not reported: ${sorted.size} queries leave fewer than $TailSamples beyond it")
    Seq(
      Metric("query_p50_s", median(lat.toSeq), "s", s"${lat.size} queries"),
      Metric("queries_per_s", lat.size / lat.sum, "1/s", f"${lat.size} queries in ${lat.sum}%.3f s of query time"),
      Metric("setup_s", setupS, "s", s"median of $SetupRounds rounds"))
  }

  private def phi(node: CompareNode, t1: Seq[TrendRow], t2: Seq[TrendRow],
                  cfg: PrunedTopK.Config): PrunedTopK.Result = node.topK match {
    case Some(k) => PrunedTopK.run(node.spec, t1, t2, k, cfg)
    case None => // the operator's own no-top-k path: every pair, exhaustively
      PrunedTopK.run(node.spec, t1, t2, TopK(Int.MaxValue, ascending = true), cfg.copy(usePruning = false))
  }

  /** One query driven as its layer calls, under a root `query` span. The
    * calls use the spec and child plan of the query's optimized CompareNode.
    */
  private def tracedQuery(tr: Tracer, q: Int, v: Int): Map[String, Double] = {
    var node: CompareNode = null
    var trends: (Seq[TrendRow], Seq[TrendRow]) = null
    var result: PrunedTopK.Result = null
    val (rows, root) = tr.span("query", q) {
      Try {
        val df = tr.span("catalyst.plan", q) {
          val d = w.query(spark, input, v)
          ReproBridge.executedPlan(d)
          d
        }._1
        node = ReproBridge.optimizedPlan(df).collectFirst { case n: CompareNode => n }
          .getOrElse(sys.error("optimized plan holds no CompareNode"))
        trends = tr.span("catalyst.trend_agg", q) {
          TrendCollector.collect(ReproBridge.ofRows(spark, node.child), node.spec)
        }._1
        result = tr.span("core.phi", q)(phi(node, trends._1, trends._2, PrunedTopK.Config()))._1
        tr.span("catalyst.output", q)(CompareOutput.toDf(spark, node.spec, result.pairs).collect())._1
      }
    }
    check(s"traced query $q", v, rows)
    rows.get // a traced query that throws leaves no layer metrics; end the run

    val (exhaustive, exSpan) = tr.span("core.exhaustive", q) {
      phi(node, trends._1, trends._2, PrunedTopK.Config(usePruning = false))
    }
    tr.drain()
    val all = tr.spans
    val layers = all.filter(_.parent == root.id)
    def layer(n: String) = layers.find(_.name == n).get
    def secs(s: Span) = s.durNs / 1e9
    val agg = layer("catalyst.trend_agg")
    val c = tr.countersOf(agg)
    val st = result.stats
    val ex = exhaustive.stats
    if (q == 1) Tracer.render(root, all).foreach(l => println(s"trace | $l"))
    Map(
      "catalyst.plan_s" -> secs(layer("catalyst.plan")),
      "catalyst.r1_applied" -> (if (node.child.collectFirst { case j: Join => j }.isEmpty) 1.0 else 0.0),
      "catalyst.trend_agg_s" -> secs(agg),
      "catalyst.trend_agg.self_s" -> Tracer.selfNs(agg, all) / 1e9,
      "catalyst.trend_agg.task_cpu_s" -> c.cpuNs / 1e9,
      "catalyst.trend_agg.tasks" -> c.tasks.toDouble,
      "catalyst.trend_agg.failed_tasks" -> c.failedTasks.toDouble,
      "catalyst.trend_agg.idle_core_s" -> (secs(agg) * o.cores - c.runMs / 1e3),
      "catalyst.trend_agg.shuffle_bytes" -> c.shuffleBytes.toDouble,
      "catalyst.trend_agg.shuffle_records" -> c.shuffleRecords.toDouble,
      "catalyst.trend_agg.result_bytes" -> c.resultBytes.toDouble,
      "catalyst.trend_agg.trends" -> (trends._1.size + trends._2.size).toDouble,
      "catalyst.trend_agg.cells" -> (trends._1.iterator ++ trends._2.iterator).map(_.data.size.toLong).sum.toDouble,
      "core.phi_s" -> secs(layer("core.phi")),
      "core.phi.pairs_total" -> st.pairsTotal.toDouble,
      "core.phi.pairs_pruned_initial" -> st.pairsPrunedInitial.toDouble,
      "core.phi.pairs_pruned_search" -> st.pairsPrunedSearch.toDouble,
      "core.phi.segments_processed" -> st.segmentsProcessed.toDouble,
      "core.phi.tuples_compared" -> st.tuplesCompared.toDouble,
      "core.phi.summary_bytes" -> st.summaryBytes.toDouble,
      "core.exhaustive_s" -> secs(exSpan),
      "core.exhaustive.tuples_compared" -> ex.tuplesCompared.toDouble,
      "catalyst.output_s" -> secs(layer("catalyst.output")),
      "trace.query_s" -> secs(root),
      "trace.unattributed_s" -> Tracer.selfNs(root, all) / 1e9)
  }

  /** Alternates untraced and traced queries: the per-layer metrics. */
  private def tracedLoop(): Seq[Metric] = {
    val tr = new Tracer(spark.sparkContext)
    val untraced = ArrayBuffer.empty[Double]
    var gcS = 0.0
    val samples = ArrayBuffer.empty[Map[String, Double]]
    heapPools.foreach(_.resetPeakUsage())
    val t0 = System.nanoTime()
    while (samples.isEmpty || secondsSince(t0) < o.seconds) {
      val v = nextVariant()
      val gc0 = gcSeconds
      val q0 = System.nanoTime()
      val rows = Try(runQuery(v))
      untraced += secondsSince(q0)
      gcS += gcSeconds - gc0
      check(s"query ${untraced.size}", v, rows)
      samples += tracedQuery(tr, samples.size + 1, nextVariant())
    }
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0

    val traceFile = Paths.get(o.out, "trace", s"${w.name}-seed${o.seed}.jsonl")
    Files.createDirectories(traceFile.getParent)
    Files.write(traceFile, tr.spans.sortBy(_.startNs).map(_.json).asJava, StandardCharsets.UTF_8)
    println(s"trace.file              $traceFile (${tr.spans.size} spans)")

    val m = samples.head.keys.map(k => k -> median(samples.map(_(k)).toSeq)).toMap
    val p50 = median(untraced.toSeq)
    val n = s"median of ${samples.size} traced queries"
    val mid = samples.sortBy(_("trace.query_s")).apply((samples.size - 1) / 2)
    val layerKeys = Seq("catalyst.plan_s", "catalyst.trend_agg_s", "core.phi_s", "catalyst.output_s")
    println("trace.decomposition     median traced query: " +
      layerKeys.map(k => f"$k ${mid(k)}%.4f").mkString(" + ") +
      f" + unattributed ${mid("trace.unattributed_s")}%.4f = ${mid("trace.query_s")}%.4f s")
    println(f"trace.vs_untraced       traced query ${m("trace.query_s")}%.4f s vs untraced query_p50_s $p50%.4f s" +
      f" (${untraced.size} queries): overhead ${m("trace.query_s") - p50}%.4f s")
    def t(k: String, base: String = n) = Metric(k, m(k), "s", base)
    def cnt(k: String) = Metric(k, m(k), "count")
    val pruned = m("core.phi.pairs_pruned_initial") + m("core.phi.pairs_pruned_search")
    Seq(
      t("catalyst.plan_s"), cnt("catalyst.r1_applied"),
      t("catalyst.trend_agg_s"), t("catalyst.trend_agg.self_s", "trend_agg time outside Spark jobs"),
      t("catalyst.trend_agg.task_cpu_s", "executor CPU, summed over tasks"),
      cnt("catalyst.trend_agg.tasks"), cnt("catalyst.trend_agg.failed_tasks"),
      t("catalyst.trend_agg.idle_core_s", s"trend_agg_s x ${o.cores} cores - task run time"),
      Metric("catalyst.trend_agg.shuffle_bytes", m("catalyst.trend_agg.shuffle_bytes"), "bytes"),
      cnt("catalyst.trend_agg.shuffle_records"),
      Metric("catalyst.trend_agg.result_bytes", m("catalyst.trend_agg.result_bytes"), "bytes"),
      cnt("catalyst.trend_agg.trends"), cnt("catalyst.trend_agg.cells"),
      t("core.phi_s"),
      cnt("core.phi.pairs_total"), cnt("core.phi.pairs_pruned_initial"), cnt("core.phi.pairs_pruned_search"),
      cnt("core.phi.segments_processed"), cnt("core.phi.tuples_compared"),
      Metric("core.phi.summary_bytes", m("core.phi.summary_bytes"), "bytes"),
      Metric("core.phi.pruned_frac", if (m("core.phi.pairs_total") > 0) pruned / m("core.phi.pairs_total") else 0.0,
        "ratio", f"$pruned%.0f pruned of ${m("core.phi.pairs_total")}%.0f pairs_total"),
      Metric("core.phi.tuples_frac",
        if (m("core.exhaustive.tuples_compared") > 0) m("core.phi.tuples_compared") / m("core.exhaustive.tuples_compared") else 0.0,
        "ratio", f"${m("core.phi.tuples_compared")}%.0f of ${m("core.exhaustive.tuples_compared")}%.0f exhaustive tuples"),
      t("core.exhaustive_s", "same trends, Config(usePruning = false)"), cnt("core.exhaustive.tuples_compared"),
      Metric("core.phi_vs_exhaustive", m("core.phi_s") / m("core.exhaustive_s"), "ratio",
        f"core.phi_s ${m("core.phi_s")}%.4f s / core.exhaustive_s ${m("core.exhaustive_s")}%.4f s"),
      t("catalyst.output_s"),
      Metric("jvm.gc_s", gcS / untraced.size, "s", s"driver GC per untraced query, ${untraced.size} queries"),
      Metric("jvm.heap_peak_mb", heapPeakMb, "MB", "sum of heap pool peaks during the loop"),
      t("trace.query_s"), t("trace.unattributed_s", "query span not covered by a layer span"),
      Metric("trace.overhead_s", m("trace.query_s") - p50, "s", f"trace.query_s - untraced query_p50_s $p50%.4f s"))
  }
}
