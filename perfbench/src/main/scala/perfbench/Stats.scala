package perfbench

/** Summary statistics over repeated samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First quartile, median and third quartile, computed as Python's
    * `statistics.quantiles(xs, n=4)` does (its default "exclusive" method),
    * so figures printed here agree with the spread check in `spread.py`.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.size >= 2, "quartiles need at least two samples")
    val s = xs.sorted.toVector
    val m = s.size + 1
    def cut(i: Int): Double = {
      val j = math.max(1, math.min(s.size - 1, i * m / 4))
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (cut(1), cut(2), cut(3))
  }

  /** Nearest-rank percentile: the smallest sample with at least `p`% of the
    * samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile must be in (0, 100], got $p")
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.size).toInt - 1))
  }
}
