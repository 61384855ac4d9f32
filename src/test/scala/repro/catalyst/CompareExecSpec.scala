package repro.catalyst

import org.apache.spark.sql.ReproBridge
import repro.core._
import repro.{SparkSpec, TestData, TestUtil}

/** The Catalyst path — CompareNode → CompareStrategy → CompareTopKExec —
  * must agree with the DataFrame strategies (which are oracle-checked) on
  * every grid point, and must actually plan through the custom physical
  * operator.
  */
class CompareExecSpec extends SparkSpec {

  private lazy val sales = TestData.sales(spark, rows = 2000).cache()

  for ((name, spec) <- Specs.grid) {
    test(s"physical operator == basic plan: $name") {
      TestUtil.assertSameResult(
        CompareSession.compare(sales, spec, None),
        BasicExec.run(sales, spec),
        name)
    }
  }

  test("the plan actually contains CompareTopKExec") {
    val df = CompareSession.compare(sales, Specs.symCities(), None)
    val physical = ReproBridge.executedPlan(df)
    assert(physical.exists(_.isInstanceOf[CompareTopKExec]),
      s"plan was:\n$physical")
  }

  test("logical plan shows the Compare node with its spec") {
    val df = CompareSession.compare(sales, Specs.ex1a(), Some(TopK(3, ascending = true)))
    val logical = ReproBridge.analyzedPlan(df)
    assert(logical.exists(_.isInstanceOf[CompareNode]))
    assert(logical.treeString.contains("USING SUM OVER DIFF(2)"))
  }

  for ((name, spec) <- Specs.gridSmall; asc <- Seq(true, false)) {
    test(s"fused top-k (${if (asc) "ASC" else "DESC"}) matches driver-side Φp: $name") {
      val k = TopK(3, asc)
      val viaExec = TestUtil.scoreBag(CompareSession.compare(sales, spec, Some(k)))
      val (t1, t2) = TrendCollector.collect(sales, spec)
      val viaDriver = TestUtil.scoreBag(PrunedTopK.run(spec, t1, t2, k).pairs)
      // Reference independent of Φp: the basic plan ordered by score.
      val basic = BasicExec.run(sales, spec)
      val expect = TestUtil.scoreBag(basic.orderBy(if (asc) basic("score").asc else basic("score").desc)
        .limit(k.k))
      assert(viaExec == expect, name)
      assert(viaDriver == expect, name)
    }
  }

  test("fused top-k populates pruning statistics") {
    CompareTopKExec.lastStats = None
    CompareSession.compare(sales, Specs.symCities(), Some(TopK(1, ascending = false))).collect()
    val stats = CompareTopKExec.lastStats
    assert(stats.isDefined)
    assert(stats.get.pairsTotal == 8 * 7 / 2)
    assert(stats.get.tuplesCompared > 0)
  }

  test("single-sided optimization handles symmetric trendsets correctly") {
    // spec.t1 == spec.t2 → one aggregation pass serves both sides.
    val spec = Specs.symCitiesMulti()
    TestUtil.assertSameResult(
      CompareSession.compare(sales, spec, None),
      BasicExec.run(sales, spec))
  }

  test("operator resolves columns case-insensitively") {
    val upper = sales.toDF(sales.columns.map(_.toUpperCase): _*)
    val df = CompareSession.compare(upper, Specs.symCities(), None)
    assert(df.count() == 8 * 7 / 2)
  }

  test("operator fails fast on a missing column") {
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("nosuchcol", None)), Seq(Specs.weekRev)),
      TrendsetSpec(Seq(ConstraintTerm("nosuchcol", None)), Seq(Specs.weekRev)),
      Specs.scorer())
    val ex = intercept[Exception] {
      CompareSession.compare(sales, spec, None).collect()
    }
    assert(ex.getMessage != null)
  }

  test("operator handles date-typed grouping columns") {
    import org.apache.spark.sql.functions._
    val withDate = sales.withColumn("wdate",
      date_add(lit("2020-01-06").cast("date"), (col("week") - 1) * 7))
    val spec = CompareSpec(
      TrendsetSpec(Seq(ConstraintTerm("city", None)),
        Seq(GroupingMeasure("wdate", AggKind.Avg, "revenue"))),
      TrendsetSpec(Seq(ConstraintTerm("city", None)),
        Seq(GroupingMeasure("wdate", AggKind.Avg, "revenue"))),
      Specs.scorer())
    TestUtil.assertSameResult(
      CompareSession.compare(withDate, spec, None),
      BasicExec.run(withDate, spec))
  }
}
