package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Basic execution strategy (§4.1) — the plan relational engines generate for
  * hand-written comparative SQL (Figure 3):
  *
  *   1. one group-by aggregate per (grouping, measure) (no sharing),
  *   2. a join at *trendset* granularity on equal grouping values,
  *   3. per-pair aggregation with the scorer,
  *   4. UNION ALL across (grouping, measure) combinations.
  *
  * This doubles as the "unmodified engine" baseline of §8: it is exactly what
  * the engine does without the COMPARE optimizations. Given optimizer
  * [[Stats]], step 1 instead shares scans through the merged group-by
  * aggregates of Algorithm 1 (§4.2) — the "+merged aggs" ablation stage.
  */
object BasicExec {

  /** Full pair scoring in the core output schema of [[CompareOutput]].
    *
    * @param stats when given, merge group-by aggregates per [[MergeOptimizer]]
    */
  def run(df: DataFrame, spec: CompareSpec, stats: Option[Stats] = None): DataFrame = {
    val (rels1, rels2) = stats match {
      case None =>
        (spec.t1.gms.indices.map(i => i -> Relations.trendRel(df, spec.t1, spec.t1.gms(i), 1)).toMap,
         spec.t2.gms.indices.map(j => j -> Relations.trendRel(df, spec.t2, spec.t2.gms(j), 2)).toMap)
      case Some(st) => mergedRels(df, spec, st)
    }
    val perGm = spec.comparableGmPairs.map { case (i, j) =>
      val gm1 = spec.t1.gms(i); val gm2 = spec.t2.gms(j)
      val left = rels1(i); val right = rels2(j)
      val joined = left.join(right, Relations.pairCondition(spec, left, right))
      val cCols = (CompareOutput.c1Cols(spec) ++ CompareOutput.c2Cols(spec)).map(col)
      joined
        .groupBy(cCols: _*)
        .agg(Relations.scoreAgg(spec.scorer, col("__v1") - col("__v2")).as("score"))
        .withColumn("grouping", lit(gm1.grouping))
        .withColumn("measure_1", lit(gm1.measureLabel))
        .withColumn("measure_2", lit(gm2.measureLabel))
        .select(CompareOutput.columns(spec).map(col): _*)
    }
    if (perGm.isEmpty) emptyResult(df, spec) else perGm.reduce(_.unionAll(_))
  }

  /** Zero comparable (g, m) pairs (e.g. a cross-measure spec with a single
    * (g, m)): an empty relation in the COMPARE output schema.
    */
  private def emptyResult(df: DataFrame, spec: CompareSpec): DataFrame =
    df.sparkSession.createDataFrame(
      df.sparkSession.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      CompareOutput.schema(spec))

  // Cached shared sub-plans ("spools") created by merged execution; benches
  // clear them between timed stages so storage does not accumulate.
  private val spools = scala.collection.mutable.ArrayBuffer.empty[DataFrame]

  def clearSpools(): Unit = spools.synchronized {
    // Blocking: async unpersist would churn the block manager while the next
    // timed measurement runs.
    spools.foreach(_.unpersist(blocking = true))
    spools.clear()
  }

  /** Cache + eagerly materialize a shared sub-plan and register it for
    * [[clearSpools]] — the engine-side analogue of a spool.
    */
  private def spool(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    spools.synchronized { spools += c }
    c
  }

  /** Per-(g, m) trend relations of both sides through Algorithm 1's merge
    * groups. Identical trendset templates (symmetric and cross-measure
    * comparisons) compute side 1 once and rename for side 2 instead of
    * re-aggregating.
    */
  private def mergedRels(df: DataFrame, spec: CompareSpec,
                         stats: Stats): (Map[Int, DataFrame], Map[Int, DataFrame]) = {
    val rels1raw = trendRels(df, spec.t1, 1, MergeOptimizer.optimize(spec.t1, stats))
    val rels2 =
      if (spec.t1 == spec.t2)
        rels1raw.map { case (i, rel) =>
          val renames = spec.t1.attrs.map(a => s"${a}_1" -> s"${a}_2") ++
            Seq("__g1" -> "__g2", "__v1" -> "__v2")
          i -> renames.foldLeft(rel) { case (d, (from, to)) => d.withColumnRenamed(from, to) }
        }
      else trendRels(df, spec.t2, 2, MergeOptimizer.optimize(spec.t2, stats))
    // Spool the per-(g,m) trend relations: they are shared sub-plans (each
    // feeds a pairwise join, and for symmetric trendsets both join sides).
    // The cache substitution applies to rels2's renamed lineage as well.
    (rels1raw.map { case (i, r) => i -> spool(r) }, rels2)
  }

  /** Per-(g,m) trend relations for a trendset, one merged sub-plan per group
    * of `groups`. Output columns per relation match [[Relations.trendRel]].
    */
  private def trendRels(df: DataFrame, ts: TrendsetSpec, side: Int,
                        groups: Seq[Seq[Int]]): Map[Int, DataFrame] = {
    groups.flatMap { gmIdxs =>
      if (gmIdxs.size == 1) {
        val i = gmIdxs.head
        Seq(i -> Relations.trendRel(df, ts, ts.gms(i), side))
      } else mergedGroup(df, ts, side, gmIdxs)
    }.toMap
  }

  /** One merged sub-plan: a single group-by over the union of grouping
    * columns computing decomposable partials (SUM/COUNT/MIN/MAX per measure),
    * then one re-aggregation per member (g, m) (steps 1–4 of §4.2).
    */
  private def mergedGroup(df: DataFrame, ts: TrendsetSpec, side: Int,
                          gmIdxs: Seq[Int]): Seq[(Int, DataFrame)] = {
    val base = Relations.fixedFilter(df, ts)
    val groupings = gmIdxs.map(ts.gms(_).grouping).distinct
    val keyCols = (ts.freeAttrs ++ groupings).map(a => col(a).cast("string").as(a))

    // Partial aggregates, one set per distinct measure column referenced.
    val measures = gmIdxs.map(ts.gms(_).measure).distinct
    val partials = measures.flatMap { m =>
      val c = col(m).cast("double")
      Seq(sum(c).as(s"__sum_$m"), count(c).as(s"__cnt_$m"),
          min(c).as(s"__min_$m"), max(c).as(s"__max_$m"))
    }
    // Spool: the merged aggregate is the *shared* sub-plan — every member
    // (g, m) re-aggregates from it. Without the eager materialization, a
    // single job with several consumer branches would race to compute the
    // same uncached partitions and duplicate the scan (SQL Server shares the
    // sub-plan via spools).
    val merged = spool(base.groupBy(keyCols: _*).agg(partials.head, partials.tail: _*))

    gmIdxs.map { i =>
      val gm = ts.gms(i)
      val keys = ts.freeAttrs.map(a => col(a).as(s"${a}_$side")) :+
        col(gm.grouping).as(s"__g$side")
      val v: Column = gm.agg match {
        case AggKind.Avg => sum(col(s"__sum_${gm.measure}")) / sum(col(s"__cnt_${gm.measure}"))
        case AggKind.Sum => sum(col(s"__sum_${gm.measure}"))
        case AggKind.Min => min(col(s"__min_${gm.measure}"))
        case AggKind.Max => max(col(s"__max_${gm.measure}"))
      }
      val reagg = merged.groupBy(keys: _*).agg(v.as(s"__v$side"))
      val withFixed = ts.fixedTerms.foldLeft(reagg) {
        case (d, (a, fv)) => d.withColumn(s"${a}_$side", lit(fv))
      }
      i -> withFixed
    }
  }
}
