package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages
import repro.benchmark.Benchmarks

/** Table 5 (§7.3): statistics of the three explainability-study tasks.
  *
  * Paper values: Task1 (10, 11.8, 14, human name), Task2 (10, 20.3, 38,
  * address), Task3 (100, 16.6, 18, phone number). Sizes are reproduced
  * exactly (they are corpus-construction parameters); lengths are
  * approximate because the underlying records were never released.
  */
class Table5Bench extends AnyFunSuite with AsciiMessages {

  private val paper = Map(
    "Task1" -> (10, 11.8, 14, "human name"),
    "Task2" -> (10, 20.3, 38, "address"),
    "Task3" -> (100, 16.6, 18, "phone number"),
  )

  test("Table 5: explainability test cases details") {
    println("\n== Table 5: explainability test cases (paper in parentheses) ==")
    println(f"${"Task"}%-7s ${"Size"}%-11s ${"AvgLen"}%-14s ${"MaxLen"}%-11s DataType")
    Benchmarks.table5Tasks.foreach { case (name, t) =>
      val (pSize, pAvg, pMax, pType) = paper(name)
      println(f"$name%-7s ${t.size}%3d ($pSize%3d)  ${t.avgLen}%6.1f ($pAvg%4.1f)  ${t.maxLen}%3d ($pMax%3d)  ${t.dataType} ($pType)")
      assert(t.size == pSize, s"$name size")
      assert(t.dataType == pType, s"$name type")
      assert(math.abs(t.avgLen - pAvg) < 8.0, s"$name avgLen ${t.avgLen} vs paper $pAvg")
      assert(math.abs(t.maxLen - pMax) <= 22, s"$name maxLen ${t.maxLen} vs paper $pMax")
    }
  }

  test("Task1 and Task3 share heterogeneity ordering with the paper (Task3 larger)") {
    val m = Benchmarks.table5Tasks.toMap
    assert(m("Task3").size > m("Task1").size)
  }
}
