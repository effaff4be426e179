package repro.bench

import java.nio.file.Paths

/** Warm timings taken in fresh JVMs.
  *
  * One JVM's median moves by up to half between runs of the same code, so a
  * timing suite starts `Count` child JVMs on its own classpath. Each runs
  * the `main` of the suite's companion object, which times rounds with
  * `medians` and prints one number of nanoseconds a line. The suite reads
  * the lines back and prints, per line, the median and quartiles across
  * JVMs with `spread`.
  */
object WarmJvms {

  val Count = 5

  /** The numbers each of `Count` child JVMs prints, one per line. Each child
    * runs the `main` of the object `main` on this JVM's classpath.
    */
  def run(main: AnyRef): Vector[Vector[Long]] = {
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val name = main.getClass.getName.stripSuffix("$")
    Vector.fill(Count) {
      val child = new ProcessBuilder(java, "-Xmx1g", "-Dfile.encoding=UTF-8", "-cp",
        System.getProperty("java.class.path"), name).redirectError(ProcessBuilder.Redirect.INHERIT).start()
      val lines = scala.io.Source.fromInputStream(child.getInputStream, "UTF-8").getLines().toVector
      assert(child.waitFor() == 0, s"child JVM of $name failed")
      lines.map(_.toLong)
    }
  }

  /** Each timing of a round, as its median over `rounds` rounds after
    * `warmups` rounds. `round()` runs one round and returns its timings in
    * nanoseconds, always the same number of them.
    */
  def medians(warmups: Int, rounds: Int)(round: () => Vector[Long]): Vector[Long] = {
    (1 to warmups).foreach(_ => round())
    val timed = Vector.fill(rounds)(round())
    timed.head.indices.map(i => quantile(timed.map(_(i)), 0.5)).toVector
  }

  /** Nanoseconds `f` takes. */
  def time(f: => Unit): Long = {
    val start = System.nanoTime()
    f
    System.nanoTime() - start
  }

  /** The `q`-quantile of `xs`, by nearest rank. */
  def quantile(xs: Seq[Long], q: Double): Long = xs.sorted.apply(((xs.size - 1) * q).round.toInt)

  def ms(ns: Long): String = f"${ns / 1e6}%.3f"

  /** The median of `xs` and its quartiles, in milliseconds. */
  def spread(xs: Seq[Long]): String =
    f"${ms(quantile(xs, 0.5))}%8s (${ms(quantile(xs, 0.25))}–${ms(quantile(xs, 0.75))})"
}
