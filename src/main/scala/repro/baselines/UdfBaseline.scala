package repro.baselines

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.apache.spark.sql.DataFrame
import repro.core._

/** UDF execution model simulation (§8's UDF baseline).
  *
  * The paper's UDF takes the UNION of all group-by aggregates (computed via
  * GROUPING SETS) and compares trends inside the database process, with two
  * structural handicaps the paper calls out: every aggregate row is
  * marshalled into the UDF invocation, and the UDF body runs sequentially
  * with limited resources. We reproduce both: aggregation runs on Spark
  * (per-(g,m) group-bys — GROUPING SETS-equivalent input), all rows pass
  * through Java serialization (the marshalling analogue), and the comparison
  * runs single-threaded on the driver. The comparison itself *does* use
  * trendwise processing and segment-aggregate pruning, as in the paper.
  */
object UdfBaseline {

  final case class Result(pairs: Seq[ScoredPair], stats: PrunedTopK.PruneStats,
                          marshalledBytes: Long)

  def topK(df: DataFrame, spec: CompareSpec, k: TopK): Result = {
    val (t1, t2) = trends(df, spec)
    // Marshal the whole aggregate input through serialization, as a UDF
    // invocation would.
    val (t1m, b1) = roundTrip(t1)
    val (t2m, b2) = roundTrip(t2)
    val res = PrunedTopK.run(spec, t1m, t2m, k)
    Result(res.pairs, res.stats, b1 + b2)
  }

  /** The UDF's aggregate input (the GROUPING SETS union), computed by the
    * engine without COMPARE's merging optimization: one group-by per (g, m)
    * and side, each assembled into trends.
    */
  def trends(df: DataFrame, spec: CompareSpec): (Seq[TrendRow], Seq[TrendRow]) = {
    def side(ts: TrendsetSpec, side: Int, gmIdxs: Seq[Int]): Seq[TrendRow] = gmIdxs.flatMap { i =>
      val rel = Relations.trendRel(df, ts, ts.gms(i), side)
      val rows = rel.collect().map(_.toSeq.map(v => if (v == null) null else v.toString))
      Relations.assembleTrends(ts, i, side, rel.columns.toSeq, rows)
    }
    val gms1 = spec.comparableGmPairs.map(_._1).distinct
    val gms2 = spec.comparableGmPairs.map(_._2).distinct
    (side(spec.t1, 1, gms1), side(spec.t2, 2, gms2))
  }

  private def roundTrip(rows: Seq[TrendRow]): (Seq[TrendRow], Long) = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(rows.toList)
    oos.close()
    val bytes = bos.toByteArray
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes))
    val back = ois.readObject().asInstanceOf[List[TrendRow]]
    (back, bytes.length.toLong)
  }
}
