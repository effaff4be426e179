package repro.core

import repro.benchmark.Benchmarks
import repro.sim.ClxSim

/** The `Mdl.best` calls of the 47 corpus tasks: per task, every hierarchy
  * node that is not a target and validates against some target, with the
  * DAGs of the targets it validates against. Targets and hierarchy are
  * built as `ClxSim.run` builds them. Algorithm 2 visits only some of these
  * nodes.
  */
object CorpusCalls {

  /** One call: `Mdl.best(dags, source, k)`. */
  final case class Call(task: String, source: Pattern, dags: Vector[Alignment.Dag])

  lazy val all: Vector[Call] = for {
    task <- Benchmarks.all.toVector
    targets = ClxSim.chooseTargets(task.data)
    node <- Synthesizer.hierarchyOf(task.data.map(_._1)).preOrder
    source = node.pattern
    if !targets.contains(source)
    validated = targets.filter(Validate.validateAt(source, _, node.isLeaf))
    if validated.nonEmpty
  } yield Call(task.id, source, validated.map(Alignment.align(_, source)))
}
