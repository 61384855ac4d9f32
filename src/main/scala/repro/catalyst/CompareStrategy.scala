package repro.catalyst

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}

/** Plans the COMPARE logical operator into [[CompareTopKExec]] (§4's
  * "replace COMPARE with a sub-plan of physical operators").
  */
class CompareStrategy extends SparkStrategy {
  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case n: CompareNode =>
      CompareTopKExec(n.spec, n.topK, n.output, planLater(n.child)) :: Nil
    case _ => Nil
  }
}
