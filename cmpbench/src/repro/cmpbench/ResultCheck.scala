package repro.cmpbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{avg, col}

/** Independent result check for the benchmark's COMPARE queries.
  *
  * The reference shares no code with the program's trend pipeline, pruning
  * operator or oracles: trends come from a plain DataFrame
  * `groupBy(constraint, grouping).agg(avg(measure))`, and every pair is
  * scored as SUM OVER DIFF(2) over the grouping values both trends hold, in
  * this file's own loop.
  */
object ResultCheck {

  /** Relative tolerance on scores: the engines sum doubles in different orders. */
  val RelTol = 1e-9

  /** Identity of one output pair: (c1, c2, grouping, measure_1, measure_2). */
  final case class Key(c1: String, c2: String, grouping: String, m1: String, m2: String) {
    override def toString: String = s"($c1, $c2, $grouping, $m1, $m2)"
  }
  final case class ResultRow(key: Key, score: Double)

  /** The reference answer to one query. */
  trait Reference {
    def trends: Long
    /** The pair's exact score; None if it is not a comparable pair. */
    def scoreOf(key: Key): Option[Double]
    /** Every comparable pair's score, ascending. */
    def sortedScores: Array[Double]
    def pairs: Int = sortedScores.length
    /** The `n` best pairs with their scores, for failure reports. */
    def best(n: Int): Seq[(Key, Double)]
  }

  object Reference {
    /** A reference given as a table of pair scores. */
    def of(scores: Map[Key, Double], trendCount: Long): Reference = new Reference {
      val trends = trendCount
      def scoreOf(key: Key) = scores.get(key)
      val sortedScores = scores.values.toArray.sorted
      def best(n: Int) = scores.toSeq.sortBy(_._2).take(n)
    }
  }

  /** A benchmark query as the reference sees it: trends are the distinct
    * values of `constraint`; side 1 is either every trend (`fixed1 = None`,
    * symmetric pairs with c1 < c2) or the single trend `fixed1 = Some(v)`
    * against every other value (identical values excluded). Each (grouping,
    * measure) is AVG(measure) by grouping. `k = None` asks for all pairs;
    * `Some(k)` for the k lowest scores.
    */
  final case class RefQuery(constraint: String, fixed1: Option[String],
                            gms: Seq[(String, String)], k: Option[Int])

  def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  /** Problems with `rows` as an answer; empty means the result passes.
    *
    * Passes only if (a) it has min(k, pairs) rows, (b) every row is a distinct
    * reference pair with its score within [[RelTol]], and (c) its sorted
    * scores equal the reference's best scores. Any order among tied pairs
    * is accepted.
    */
  def verify(rows: Seq[ResultRow], ref: Reference, k: Option[Int]): Seq[String] = {
    val problems = Seq.newBuilder[String]
    val want = math.min(k.getOrElse(Int.MaxValue), ref.pairs)
    if (rows.size != want) problems += s"(a) ${rows.size} rows, expected $want"
    rows.groupBy(_.key).collect { case (key, rs) if rs.size > 1 =>
      problems += s"(b) pair $key returned ${rs.size} times"
    }
    rows.foreach { r =>
      ref.scoreOf(r.key) match {
        case None => problems += s"(b) pair ${r.key} is not a comparable pair"
        case Some(s) if !close(s, r.score) =>
          problems += s"(b) pair ${r.key} score ${r.score}, reference $s"
        case _ =>
      }
    }
    val got = rows.map(_.score).sorted
    got.zip(ref.sortedScores).zipWithIndex.collect {
      case ((g, w), i) if !close(g, w) => problems += s"(c) rank ${i + 1} score $g, reference $w"
    }
    problems.result()
  }

  /** Rows of the COMPARE output schema for single-attribute constraints:
    * `c_1, c_2, grouping, measure_1, measure_2, score`.
    */
  def rowsOf(out: Array[Row]): Seq[ResultRow] = out.toSeq.map { r =>
    ResultRow(Key(r.getString(0), r.getString(1), r.getString(2), r.getString(3), r.getString(4)),
      r.getDouble(5))
  }

  /** SUM OVER DIFF(2) over the grouping values both trends hold (NaN =
    * absent); None when they share none, as no pair is formed then.
    */
  private def sumDiff2(a: Array[Double], b: Array[Double]): Option[Double] = {
    var s = 0.0
    var matched = 0
    var i = 0
    while (i < a.length) {
      if (!a(i).isNaN && !b(i).isNaN) { val d = a(i) - b(i); s += d * d; matched += 1 }
      i += 1
    }
    if (matched > 0) Some(s) else None
  }

  /** One (grouping, measure)'s trends as dense arrays over the grouping's
    * values (NaN = absent), under the query's pair rule.
    */
  private[cmpbench] final class GmTrends(g: String, m: String, fixed1: Option[String],
                               trend: Map[String, Array[Double]]) {
    val label = s"AVG($m)"
    def size: Int = trend.size
    def comparable(c1: String, c2: String): Boolean =
      trend.contains(c1) && trend.contains(c2) && (fixed1 match {
        case None      => c1 < c2
        case Some(one) => c1 == one && c2 != one
      })
    def score(c1: String, c2: String): Option[Double] =
      if (comparable(c1, c2)) sumDiff2(trend(c1), trend(c2)) else None
    def scored: Iterator[(Key, Double)] = {
      val cs = trend.keys.toArray.sorted
      val pairs = fixed1 match {
        case None      => for (i <- cs.indices.iterator; j <- (i + 1 until cs.length).iterator) yield (cs(i), cs(j))
        case Some(one) => cs.iterator.filter(c => comparable(one, c)).map(c => (one, c))
      }
      pairs.flatMap { case (c1, c2) => score(c1, c2).map(Key(c1, c2, g, label, label) -> _) }
    }
  }

  /** A query's reference over the trends of each of its (grouping, measure);
    * pair scores are recomputed on demand rather than stored.
    */
  private[cmpbench] final class TrendReference(parts: Seq[GmTrends], gs: Seq[String]) extends Reference {
    private val byGm = parts.zip(gs).map { case (p, g) => (g, p.label) -> p }.toMap
    val trends: Long = parts.map(_.size.toLong).sum
    def scoreOf(key: Key): Option[Double] =
      if (key.m1 != key.m2) None else byGm.get((key.grouping, key.m1)).flatMap(_.score(key.c1, key.c2))
    val sortedScores: Array[Double] = parts.iterator.flatMap(_.scored.map(_._2)).toArray.sorted
    def best(n: Int): Seq[(Key, Double)] = parts.iterator.flatMap(_.scored).toSeq.sortBy(_._2).take(n)
  }

  /** Build each query's reference from the input relation. Queries over the
    * same trends share one aggregate per grouping column.
    */
  def references(input: DataFrame, qs: IndexedSeq[RefQuery]): IndexedSeq[Reference] = {
    val perGm = qs.groupBy(q => (q.constraint, q.fixed1)).flatMap { case ((c, fixed1), group) =>
      gmTrends(input, c, fixed1, group.flatMap(_.gms).distinct).map { case (gm, t) => ((c, fixed1, gm), t) }
    }
    qs.map(q => new TrendReference(q.gms.map(gm => perGm((q.constraint, q.fixed1, gm))), q.gms.map(_._1)))
  }

  private def gmTrends(input: DataFrame, constraint: String, fixed1: Option[String],
                       gms: Seq[(String, String)]): Map[(String, String), GmTrends] =
    gms.groupBy(_._1).toSeq.flatMap { case (g, gmsOfG) =>
      // One aggregate per grouping column computes all of its measures.
      val measures = gmsOfG.map(_._2)
      val cells = input
        .groupBy(col(constraint).cast("string").as("c"), col(g).cast("string").as("g"))
        .agg(avg(col(measures.head).cast("double")), measures.tail.map(m => avg(col(m).cast("double"))): _*)
        .collect()
      val gIndex = cells.map(_.getString(1)).distinct.zipWithIndex.toMap
      val byC = cells.groupBy(_.getString(0))
      measures.zipWithIndex.map { case (m, mi) =>
        val trend = byC.map { case (c, rs) =>
          val a = Array.fill(gIndex.size)(Double.NaN)
          rs.foreach(r => a(gIndex(r.getString(1))) = r.getDouble(2 + mi))
          c -> a
        }
        (g, m) -> new GmTrends(g, m, fixed1, trend)
      }
    }.toMap
}
