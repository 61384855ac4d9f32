package repro.catalyst

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, UnsafeProjection}
import org.apache.spark.sql.catalyst.util.DateTimeUtils
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import repro.core._

/** Internal-value codecs for the physical operator: canonicalize constraint
  * and grouping values to strings (matching `CAST(x AS STRING)` semantics of
  * the DataFrame strategies) and widen measures to double.
  */
private[catalyst] object ValueCodec {
  def key(v: Any, dt: DataType): String = v match {
    case null            => null
    case u: UTF8String   => u.toString
    case d: Decimal      => d.toBigDecimal.bigDecimal.toPlainString
    case i: Integer if dt == DateType => DateTimeUtils.daysToLocalDate(i).toString
    case other           => other.toString
  }

  def toDouble(v: Any): Double = v match {
    case d: Double     => d
    case f: Float      => f.toDouble
    case i: Int        => i.toDouble
    case l: Long       => l.toDouble
    case s: Short      => s.toDouble
    case b: Byte       => b.toDouble
    case dec: Decimal  => dec.toDouble
    case other => throw new IllegalArgumentException(s"non-numeric measure value: $other")
  }
}

/** Column reference resolved against the child's output (top level so task
  * closures capture plain data, not the exec node).
  */
private[catalyst] case class ColRef(ord: Int, dt: DataType) {
  def keyOf(row: InternalRow): String =
    if (row.isNullAt(ord)) null else ValueCodec.key(row.get(ord, dt), dt)
  def doubleOf(row: InternalRow): java.lang.Double =
    if (row.isNullAt(ord)) null else ValueCodec.toDouble(row.get(ord, dt))
}
private[catalyst] case class GmRef(gm: Int, g: ColRef, m: ColRef, agg: AggKind)
/** Constraint values in template order: fixed terms carry their constant,
  * free terms are read from the row (so output rows align with the schema's
  * one-column-per-constraint-attribute layout).
  */
private[catalyst] case class SideRef(side: Int, fixed: Seq[(ColRef, String)],
                                     cCols: Seq[Either[String, ColRef]], gms: Seq[GmRef])

/** The COMPARE physical operator Φp (§5.3) as a Spark `UnaryExecNode`.
  *
  * One shared scan over the child computes decomposable partial aggregates
  * `(sum, count, min, max)` per (side, (g,m), trend, grouping value) via
  * `reduceByKey` — aggregate sharing realized at the scan level. Trends are
  * then assembled per key and handed to [[PrunedTopK]]: with a fused top-k
  * the summarize→bound→prune + early-termination algorithm runs; without one
  * all pairs are scored trendwise. Results are emitted as UnsafeRows.
  */
case class CompareTopKExec(
    spec: CompareSpec,
    topK: Option[TopK],
    override val output: Seq[Attribute],
    child: SparkPlan)
  extends UnaryExecNode {

  override protected def withNewChildInternal(newChild: SparkPlan): CompareTopKExec =
    copy(child = newChild)

  override def producedAttributes: org.apache.spark.sql.catalyst.expressions.AttributeSet =
    org.apache.spark.sql.catalyst.expressions.AttributeSet(output)

  protected override def doExecute(): RDD[InternalRow] = {
    val (t1Rows, t2Rows) = TrendAggregation.trends(child.execute(), child.output, spec)

    val result = topK match {
      case Some(k) => PrunedTopK.run(spec, t1Rows, t2Rows, k)
      case None =>
        PrunedTopK.run(spec, t1Rows, t2Rows, TopK(Int.MaxValue, ascending = true),
          PrunedTopK.Config(usePruning = false))
    }
    CompareTopKExec.lastStats = Some(result.stats)

    val outRows = result.pairs.map { p =>
      InternalRow.fromSeq(CompareOutput.values(spec, p).map {
        case s: String => UTF8String.fromString(s)
        case v         => v
      })
    }
    val types = output.map(_.dataType).toArray
    sparkContext.parallelize(outRows, 1).mapPartitions { it =>
      val proj = UnsafeProjection.create(types)
      it.map(proj)
    }
  }
}

object CompareTopKExec {
  /** Pruning statistics of the most recent execution on this driver —
    * observability hook for tests and benches.
    */
  @volatile var lastStats: Option[PrunedTopK.PruneStats] = None
}
