package repro.core

import org.apache.spark.sql.DataFrame
import repro.baselines.UdfBaseline
import repro.catalyst.{CompareSession, TrendCollector}
import repro.{SparkSpec, TestData, TestUtil}

/** The §4.2 optimizations are rewrites, not semantic changes: merged-aggregate
  * and trendwise/partitioned execution must produce exactly the basic plan's
  * result on every grid point, and the COMPARE operator is additionally
  * oracle-checked.
  */
class StrategyEquivalenceSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()
  private lazy val stats =
    Stats.collect(sales, Seq("region", "city", "product", "week", "month", "country"))

  /** Every pair scored exhaustively by Φp's trendwise scorer, as a result
    * DataFrame.
    */
  private def scoreAll(spec: CompareSpec, trends: (Seq[TrendRow], Seq[TrendRow])): DataFrame =
    CompareOutput.toDf(spark, spec, PrunedTopK.run(spec, trends._1, trends._2,
      TopK(Int.MaxValue, ascending = true), PrunedTopK.Config(usePruning = false)).pairs)

  for ((name, spec) <- Specs.grid) {
    test(s"trendwise (merge+partition) == basic: $name") {
      // The driver-side path the ablation benches time: the shared scan's
      // trends, compared trendwise.
      TestUtil.assertSameResult(
        scoreAll(spec, TrendCollector.collect(sales, spec)),
        BasicExec.run(sales, spec),
        name)
    }
    test(s"merged-only == basic: $name") {
      try TestUtil.assertSameResult(
        BasicExec.run(sales, spec, Some(stats)),
        BasicExec.run(sales, spec),
        name)
      finally BasicExec.clearSpools()
    }
  }

  for ((name, spec) <- Specs.gridSmall) {
    test(s"trendwise-without-merging == basic: $name") {
      // The baselines' input: one group-by per (g, m), no merging.
      TestUtil.assertSameResult(
        scoreAll(spec, UdfBaseline.trends(sales, spec)),
        BasicExec.run(sales, spec),
        name)
    }
    test(s"trendwise matches DuckDB oracle directly: $name") {
      TestUtil.checkOracle(CompareSession.compare(sales, spec, None), spec, "sales", sales)
    }
  }
}
