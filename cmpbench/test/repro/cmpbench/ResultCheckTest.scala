package repro.cmpbench

import ResultCheck._

/** Test of the benchmark's result check (no Spark needed):
  * `python3 cmpbench/run.py --self-test`. Exits non-zero on a failed case.
  */
object ResultCheckTest {

  private def key(c1: String, c2: String) = Key(c1, c2, "day", "AVG(arrdelay)", "AVG(arrdelay)")

  // Reference with a tie at ranks 2-3 and another at ranks 4-5.
  private val scores = Map(
    key("A", "B") -> 1.0, key("A", "C") -> 2.0, key("B", "C") -> 2.0,
    key("A", "D") -> 3.0, key("B", "D") -> 3.0, key("C", "D") -> 7.5)
  private val ref = Reference.of(scores, 4)

  private def row(c1: String, c2: String) = ResultRow(key(c1, c2), scores(key(c1, c2)))
  private val top3 = Seq(row("A", "B"), row("A", "C"), row("B", "C"))
  private val all = scores.keys.toSeq.map(k => row(k.c1, k.c2)).sortBy(_.score)

  private val cases: Seq[(String, Seq[ResultRow], Option[Int], Boolean)] = Seq(
    ("exact top 3", top3, Some(3), true),
    ("top 3 in another order", top3.reverse, Some(3), true),
    ("top 2, either tied pair at rank 2 (a)", Seq(row("A", "B"), row("A", "C")), Some(2), true),
    ("top 2, either tied pair at rank 2 (b)", Seq(row("B", "C"), row("A", "B")), Some(2), true),
    ("top 4, either tied pair at rank 4", top3 :+ row("B", "D"), Some(4), true),
    ("all pairs, no k", all.reverse, None, true),
    ("k above pair count", all, Some(10), true),
    ("score within 1e-10 relative", top3.updated(0, top3(0).copy(score = 1.0 + 1e-10)), Some(3), true),
    ("dropped row, no k", all.tail, None, false),
    ("missing k-th row", top3.take(2), Some(3), false),
    ("swapped pair key", top3.updated(1, ResultRow(key("C", "A"), 2.0)), Some(3), false),
    ("score off by 1e-6 relative", top3.updated(2, top3(2).copy(score = 2.0 * (1 + 1e-6))), Some(3), false),
    ("valid pair that is not among the best k", top3.updated(2, row("A", "D")), Some(3), false),
    ("duplicate of a tied pair", Seq(row("A", "B"), row("A", "C"), row("A", "C")), Some(3), false),
    ("pair that is not comparable", top3.updated(0, ResultRow(key("A", "A"), 1.0)), Some(3), false),
    ("extra row", top3 :+ row("A", "D"), Some(3), false))

  // Trend-backed references, scores recomputed from the trends (NaN = absent):
  // A-B 1, A-C 4, B-C 5, C-D 16; A-D and B-D share no grouping value.
  private val nan = Double.NaN
  private val trends = Map("A" -> Array(0.0, 0.0, nan), "B" -> Array(1.0, 0.0, nan),
    "C" -> Array(0.0, 2.0, 5.0), "D" -> Array(nan, nan, 1.0))
  private def trendRef(fixed1: Option[String]) =
    new TrendReference(Seq(new GmTrends("day", "arrdelay", fixed1, trends)), Seq("day"))
  private def r(c1: String, c2: String, score: Double) = ResultRow(key(c1, c2), score)

  private val trendCases: Seq[(String, Seq[ResultRow], Option[String], Boolean)] = Seq(
    ("trends: all-vs-all top 2", Seq(r("A", "C", 4), r("A", "B", 1)), None, true),
    ("trends: swapped pair key", Seq(r("B", "A", 1), r("A", "C", 4)), None, false),
    ("trends: pair with no shared grouping value", Seq(r("A", "B", 1), r("A", "D", 0)), None, false),
    ("trends: one-vs-all top 2", Seq(r("A", "B", 1), r("A", "C", 4)), Some("A"), true),
    ("trends: one-vs-all pair not from the fixed trend", Seq(r("A", "B", 1), r("B", "C", 5)), Some("A"), false),
    ("trends: one-vs-all identical value", Seq(r("A", "B", 1), r("A", "A", 0)), Some("A"), false))

  def main(args: Array[String]): Unit = {
    val allCases = cases ++ trendCases.map { case (name, rows, fixed1, pass) => (name, rows, Some(2), pass) }
    val refOf = (cases.map(_._1 -> ref) ++ trendCases.map(c => c._1 -> trendRef(c._3))).toMap
    val bad = allCases.filter { case (name, rows, k, pass) =>
      val problems = verify(rows, refOf(name), k)
      val ok = problems.isEmpty == pass
      println(f"${if (ok) "ok  " else "FAIL"} $name%-44s ${if (problems.isEmpty) "passes" else problems.mkString("; ")}")
      !ok
    }
    println(s"${allCases.size - bad.size} of ${allCases.size} cases as expected")
    sys.exit(if (bad.isEmpty) 0 else 1)
  }
}
