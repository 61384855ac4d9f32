package repro.cmpbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, sum}

import repro.catalyst.{CompareSession, PkFkHints}
import repro.core._
import repro.flight.FlightData
import repro.tpcds.WebSalesData
import ResultCheck.RefQuery

/** A benchmark workload: how its input is generated and cached, the COMPARE
  * queries it sends, and the same queries as the independent reference sees
  * them. A run's queries cycle through the workload's variants.
  */
sealed trait BenchWorkload {
  def name: String
  def sizes: String
  /** Whether the session is built with the COMPARE SQL extensions. */
  def sqlExtensions: Boolean
  /** Generate and cache the input from `seed`; the relation the query reads. */
  def load(spark: SparkSession, seed: Long): DataFrame
  /** Variant `v`'s query as an unexecuted DataFrame over the loaded input. */
  def query(spark: SparkSession, input: DataFrame, v: Int): DataFrame
  /** Variant `v`'s query as the reference sees it. */
  def refs: IndexedSeq[RefQuery]
  def variants: Int = refs.size
  /** Measure whose sum over the input goes into the run's input fingerprint. */
  def fingerprintMeasure: String

  def inputSum(input: DataFrame): Double =
    input.agg(sum(col(fingerprintMeasure).cast("double"))).head().getDouble(0)
}

object BenchWorkloads {

  private val sumDiff2 = Scorer(AggKind.Sum, 2)
  private val top5Asc = TopK(5, ascending = true)

  /** All airports vs all airports, TOP 5 ASC (Table-4 Flight-Q2/Q4); each
    * variant is one list of (g, m).
    */
  private final class FlightAllVsAll(val name: String, airports: Int, days: Int, rowsPerCell: Int,
                                     gmVariants: IndexedSeq[Seq[GroupingMeasure]]) extends BenchWorkload {
    private val specs = gmVariants.map { gms =>
      val ts = TrendsetSpec(Seq(ConstraintTerm("airport", None)), gms)
      CompareSpec(ts, ts, sumDiff2)
    }
    val sizes = s"FlightData.flights($airports, $days, $rowsPerCell), TOP 5 ASC, " +
      gmVariants.map(_.mkString(" ")).mkString(" | ")
    val sqlExtensions = false
    def load(spark: SparkSession, seed: Long): DataFrame = {
      val df = FlightData.flights(spark, airports, days, rowsPerCell, seed).cache()
      df.count()
      df
    }
    def query(spark: SparkSession, input: DataFrame, v: Int): DataFrame =
      CompareSession.compare(input, specs(v), Some(top5Asc))
    val refs = gmVariants.map(gms =>
      RefQuery("airport", None, gms.map(gm => (gm.grouping, gm.measure)), Some(top5Asc.k)))
    val fingerprintMeasure = "arrdelay"
  }

  /** Scan-bound: many (g, m) over long trends, so shared trend aggregation
    * dominates and the pair search is small.
    */
  val flightScan: BenchWorkload = new FlightAllVsAll("flight-scan", 40, 366, 6, IndexedSeq(
    for (g <- Seq("day", "week"); m <- FlightData.Measures) yield GroupingMeasure(g, AggKind.Avg, m)))

  /** Pair-bound: one (g, m) over many short trends, so the Φp pair search
    * dominates (the "more, shorter trends" regime of Fig. 10). Φp's work
    * depends on how close the best pairs are, which varies with the data; the
    * queries take the five delay measures in turn so a run averages over
    * five trend sets rather than one.
    */
  val flightPairs: BenchWorkload = new FlightAllVsAll("flight-pairs", 640, 23, 1,
    FlightData.Measures.toIndexedSeq.map(m => Seq(GroupingMeasure("day", AggKind.Avg, m))))

  /** Short queries parsed from COMPARE SQL text over a PK-FK join that rule
    * R1 removes; no TOP, so all 255 pairs are scored and returned.
    */
  val sqlLookup: BenchWorkload = new BenchWorkload {
    private val rows = 12800L
    private val pages = 256
    val name = "sql-lookup"
    val sizes = s"WebSalesData.webSales($rows, $pages, 200, 120) join webPage($pages), no TOP"
    val sqlExtensions = true
    val text = "COMPARE TABLE sales_pages [wp_web_page_sk = '1' <-> wp_web_page_sk] " +
      "[(ws_item_sk, AVG(ws_net_profit))] USING SUM OVER DIFF(2)"
    def load(spark: SparkSession, seed: Long): DataFrame = {
      val sales = WebSalesData.webSales(spark, rows, pages, 200, 120, seed = seed).cache()
      val page = WebSalesData.webPage(spark, pages).cache()
      sales.count(); page.count()
      sales.join(page, col("ws_web_page_sk") === col("wp_web_page_sk")).createOrReplaceTempView("sales_pages")
      PkFkHints.register("wp_web_page_sk", "ws_web_page_sk")
      spark.table("sales_pages")
    }
    def query(spark: SparkSession, input: DataFrame, v: Int): DataFrame = spark.sql(text)
    val refs = IndexedSeq(RefQuery("wp_web_page_sk", Some("1"), Seq(("ws_item_sk", "ws_net_profit")), None))
    val fingerprintMeasure = "ws_net_profit"
  }

  val all: Seq[BenchWorkload] = Seq(flightScan, flightPairs, sqlLookup)

  def byName(n: String): BenchWorkload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n'; one of ${all.map(_.name).mkString(", ")}"))
}
