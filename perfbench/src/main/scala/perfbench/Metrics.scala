package perfbench

/** Names and units of every metric the benchmark reports. */
object Metrics {

  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "total_s" -> "s",
    "peak_heap_mb" -> "MB",
  )

  /** Spans whose self time is reported as `self.<name>_s`. */
  val spanNames: Seq[String] = Seq(
    "pass", "cluster", "dist.cluster_counts", "dist.leaf_clusters", "core.leaf_clusters",
    "hierarchy.build", "synth.synthesize", "synth.validate", "synth.align", "synth.enumerate",
    "synth.rank", "synth.dedup", "apply_verify", "dist.transform", "dist.verify",
    "sim.run", "sim.choose_targets", "sim.hierarchy", "sim.repair_apply",
  )

  private val counts = Seq(
    "dist.leaf_patterns", "spark.jobs", "spark.tasks", "hierarchy.nodes",
    "synth.solutions", "synth.noise_patterns", "synth.validate_calls", "synth.validate_accepted",
    "synth.dag_edges", "synth.plans_enumerated", "synth.cap_hits", "synth.plans_kept",
    "unifi.matched", "dist.output_patterns",
  )

  private val seconds = Seq(
    "dist.cluster_counts_s", "dist.leaf_clusters_s", "spark.executor_cpu_s", "spark.gc_s",
    "hierarchy.build_s", "synth.synthesize_s", "synth.align_s", "synth.enumerate_s",
    "synth.rank_s", "synth.dedup_s", "dist.transform_s", "dist.transform_via_regex_s",
    "dist.verify_s", "sim.choose_targets_s", "sim.hierarchy_s", "sim.synthesize_s",
    "sim.repair_apply_s", "trace.untraced_total_s", "trace.traced_total_s", "trace.overhead_s",
    "cluster_s", "apply_verify_s",
  )

  val perLayer: Seq[(String, String)] =
    counts.map(_ -> "count") ++ seconds.map(_ -> "s") ++ Seq(
      "spark.shuffle_write_mb" -> "MB",
      "tokenize.mrec_s" -> "Mrec/s",
      "render.mrec_s" -> "Mrec/s",
      "pattern_match.mrec_s" -> "Mrec/s",
      "unifi.apply_mrec_s" -> "Mrec/s",
      "sim.task_ms_p50" -> "ms",
      "sim.task_ms_p90" -> "ms",
      "sim.slowest_task_ms" -> "ms",
      "sim.slowest_task_index" -> "index",
      "jvm.peak_heap_mb" -> "MB",
    ) ++ spanNames.map(n => s"self.${n}_s" -> "s")

  /** Per-layer values from a traced pass: span durations and self times,
    * tracer counters, and what the workload measured itself. Layers the
    * workload never calls read 0.
    */
  def fromTrace(spans: Seq[Span], counters: Map[String, Double],
                measured: Map[String, Double]): Map[String, Double] = {
    val total = Trace.totalSeconds(spans)
    val self = Trace.selfSeconds(spans)
    val byId = spans.map(s => s.id -> s).toMap
    val simSynth = spans.filter(s => s.name == "synth.synthesize" &&
                                     byId.get(s.parent).exists(_.name == "sim.run"))
                        .map(_.durationNs / 1e9).sum
    val durations = Map(
      "dist.cluster_counts_s" -> "dist.cluster_counts", "dist.leaf_clusters_s" -> "dist.leaf_clusters",
      "hierarchy.build_s" -> "hierarchy.build", "synth.synthesize_s" -> "synth.synthesize",
      "synth.align_s" -> "synth.align", "synth.enumerate_s" -> "synth.enumerate",
      "synth.rank_s" -> "synth.rank", "synth.dedup_s" -> "synth.dedup",
      "dist.transform_s" -> "dist.transform", "dist.verify_s" -> "dist.verify",
      "sim.choose_targets_s" -> "sim.choose_targets", "sim.hierarchy_s" -> "sim.hierarchy",
      "sim.repair_apply_s" -> "sim.repair_apply",
    ).map { case (metric, span) => metric -> total.getOrElse(span, 0.0) }
    val selfTimes = spanNames.map(n => s"self.${n}_s" -> self.getOrElse(n, 0.0)).toMap
    val all = durations ++ selfTimes ++ counters ++ measured + ("sim.synthesize_s" -> simSynth)
    perLayer.map { case (name, _) => name -> all.getOrElse(name, 0.0) }.toMap
  }

  /** The result line: correctness, operations and every metric with its unit. */
  def resultLine(tally: Tally, names: Seq[(String, String)], values: Map[String, Double]): String =
    Json.obj(
      "correct" -> (tally.failed == 0),
      "attempted" -> tally.attempted,
      "failed" -> tally.failed,
      "metrics" -> scala.collection.immutable.ListMap(names.map { case (n, unit) =>
        n -> scala.collection.immutable.ListMap("value" -> values(n), "unit" -> unit)
      }: _*),
    )
}
