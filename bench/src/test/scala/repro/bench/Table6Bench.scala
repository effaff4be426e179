package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks

/** Table 6 (§7.4): benchmark corpus statistics per source.
  *
  * Paper values: SyGuS (27, 63.3, 11.8, 63), FlashFill (10, 10.3, 15.8,
  * 57), BlinkFill (4, 10.8, 14.9, 37), PredProg (3, 10.0, 12.7, 38),
  * Prose (3, 39.3, 10.2, 44); overall (47, 43.6, 13.0, 63). Test counts
  * are reproduced exactly; sizes/lengths approximately (the assembled
  * corpus was never released).
  */
class Table6Bench extends AnyFunSuite with AsciiMessages {

  private val paper = Map(
    "SyGuS"     -> (27, 63.3, 11.8, 63),
    "FlashFill" -> (10, 10.3, 15.8, 57),
    "BlinkFill" -> (4, 10.8, 14.9, 37),
    "PredProg"  -> (3, 10.0, 12.7, 38),
    "Prose"     -> (3, 39.3, 10.2, 44),
  )

  test("Table 6: benchmark test cases details") {
    println("\n== Table 6: benchmark corpus (paper in parentheses) ==")
    println(f"${"Source"}%-11s ${"#tests"}%-10s ${"AvgSize"}%-16s ${"AvgLen"}%-15s MaxLen")
    paper.toSeq.sortBy(-_._2._1).foreach { case (src, (pN, pSize, pLen, pMax)) =>
      val ts = Benchmarks.bySource(src)
      val n = ts.size
      val avgSize = ts.map(_.size).sum.toDouble / n
      val avgLen = ts.map(t => t.avgLen * t.size).sum / ts.map(_.size).sum
      val maxLen = ts.map(_.maxLen).max
      println(f"$src%-11s $n%2d ($pN%2d)  $avgSize%6.1f ($pSize%5.1f)  $avgLen%5.1f ($pLen%4.1f)  $maxLen%3d ($pMax%3d)")
      assert(n == pN, s"$src test count")
      assert(math.abs(avgSize - pSize) / pSize < 0.5, s"$src avgSize $avgSize vs $pSize")
    }
    val all = Benchmarks.all
    val avgSize = all.map(_.size).sum.toDouble / all.size
    val avgLen = all.map(t => t.avgLen * t.size).sum / all.map(_.size).sum
    println(f"${"Overall"}%-11s ${all.size}%2d (47)  $avgSize%6.1f ( 43.6)  $avgLen%5.1f (13.0)  ${all.map(_.maxLen).max}%3d ( 63)")
    assert(all.size == 47)
  }

  test("SyGuS tasks dominate the corpus size as in the paper") {
    val sygusRows = Benchmarks.bySource("SyGuS").map(_.size).sum
    val rest = Benchmarks.all.map(_.size).sum - sygusRows
    assert(sygusRows > rest)
  }

  test("data types cover the paper's categories") {
    val types = Benchmarks.all.map(_.dataType).toSet
    Seq("phone number", "human name", "address", "date", "url", "university name",
        "product id", "email", "log entry").foreach(t => assert(types.contains(t), t))
  }
}
