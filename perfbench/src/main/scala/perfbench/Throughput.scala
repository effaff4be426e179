package perfbench

/** Single-threaded records-per-second of a sweep over a fixed input. */
object Throughput {
  @volatile private var sink = 0L

  /** Million records per second of `sweep`, which handles `records` records
    * and returns a checksum (kept so the work cannot be optimised away).
    * The sweep is repeated until `minSeconds` have passed.
    */
  def mrecPerSec(records: Long, minSeconds: Double = 0.5)(sweep: () => Long): Double = {
    sink += sweep() // warm-up sweep, not timed
    var sweeps = 0L
    val t0 = System.nanoTime()
    var elapsed = 0L
    while (elapsed < minSeconds * 1e9) {
      sink += sweep()
      sweeps += 1
      elapsed = System.nanoTime() - t0
    }
    records * sweeps / (elapsed / 1e9) / 1e6
  }
}
