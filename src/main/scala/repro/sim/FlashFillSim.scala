package repro.sim

import repro.flashfill.FlashFillSynth

/** §7.4 simulated lazy FlashFill user (the "lazy approach" of Harris &
  * Gulwani): provide the first positive example on the first record in a
  * non-standard pattern, then iteratively give a positive example for the
  * first record the synthesized program still gets wrong, until the data
  * is clean or patience (`exampleBudget`) runs out.
  *
  * Steps = #examples + #records the final program fails on (the paper's
  * own FlashFill costing).
  */
object FlashFillSim {

  final case class Outcome(examples: Int, failures: Int, perfect: Boolean) {
    def steps: Int = examples + failures
  }

  def run(data: Seq[(String, String)], exampleBudget: Int = 30): Outcome = {
    var examples = Vector.empty[(String, String)]
    var done = false
    while (!done && examples.size < exampleBudget) {
      val prog = FlashFillSynth.learn(examples)
      data.find { case (in, out) => prog(in) != out } match {
        case Some(ex) if !examples.contains(ex) => examples :+= ex
        case Some(_) =>
          // The program is inconsistent with an already-given example
          // (ambiguity the DSL cannot resolve); the user gives up.
          done = true
        case None => done = true
      }
    }
    val prog = FlashFillSynth.learn(examples)
    val failures = data.count { case (in, out) => prog(in) != out }
    Outcome(examples.size, failures, failures == 0)
  }
}
