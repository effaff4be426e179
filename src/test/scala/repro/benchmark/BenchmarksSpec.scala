package repro.benchmark

import org.scalatest.funsuite.AnyFunSuite
import repro.AsciiMessages

/** Structural invariants of the reconstructed 47-task corpus (Table 6). */
class BenchmarksSpec extends AnyFunSuite with AsciiMessages {

  test("corpus has exactly 47 tasks") {
    assert(Benchmarks.all.size == 47)
  }

  test("source mix matches Table 6: 27/10/4/3/3") {
    assert(Benchmarks.bySource("SyGuS").size == 27)
    assert(Benchmarks.bySource("FlashFill").size == 10)
    assert(Benchmarks.bySource("BlinkFill").size == 4)
    assert(Benchmarks.bySource("PredProg").size == 3)
    assert(Benchmarks.bySource("Prose").size == 3)
  }

  test("task ids are unique") {
    assert(Benchmarks.all.map(_.id).distinct.size == 47)
  }

  test("generators are deterministic") {
    // Task data is built once in vals; rebuilding the stats must agree.
    val t = Benchmarks.all.head
    assert(t.avgLen == t.data.map(_._1.length).sum.toDouble / t.size)
  }

  test("Table 5 tasks are present with the paper's row counts") {
    val m = Benchmarks.table5Tasks.toMap
    assert(m("Task1").size == 10)  // paper: 10
    assert(m("Task2").size == 10)  // paper: 10
    assert(m("Task3").size == 100) // paper: 100
  }

  test("Table 5 data types match the paper") {
    val m = Benchmarks.table5Tasks.toMap
    assert(m("Task1").dataType == "human name")
    assert(m("Task2").dataType == "address")
    assert(m("Task3").dataType == "phone number")
  }

  // The paper's corpus preprocessing (Appendix D): at least one record per
  // task is already in the target form, and expected outputs are non-empty.
  Benchmarks.all.foreach { t =>
    test(s"${t.id}: has >= 1 record already in target form") {
      assert(t.data.exists { case (in, out) => in == out })
    }
    test(s"${t.id}: rows are non-empty and outputs defined") {
      assert(t.data.nonEmpty)
      assert(t.data.forall { case (in, out) => in.nonEmpty && out.nonEmpty })
    }
  }

  test("overall corpus size tracks Table 6 (avg ~43.6 rows)") {
    val avg = Benchmarks.all.map(_.size).sum.toDouble / 47
    assert(avg > 25 && avg < 65, s"avg size $avg out of range")
  }

  test("SyGuS tasks are the large ones (paper avg 63.3 rows)") {
    val avg = Benchmarks.bySource("SyGuS").map(_.size).sum.toDouble / 27
    assert(avg > 40, s"SyGuS avg size $avg")
  }

  test("FlashFill tasks are small (paper avg 10.3 rows)") {
    val avg = Benchmarks.bySource("FlashFill").map(_.size).sum.toDouble / 10
    assert(avg < 20, s"FlashFill avg size $avg")
  }

  test("documented failure tasks carry notes") {
    val noted = Benchmarks.all.filter(_.notes.nonEmpty).map(_.id)
    assert(noted.contains("ff-ex13-conditional"))
    assert(noted.contains("ff-mixed-names"))
    assert(noted.contains("bf-address"))
    assert(noted.contains("prose-email"))
  }
}
