package repro.benchmark

import scala.util.Random

/** The 47-task benchmark corpus of §7.4 (Table 6), reconstructed.
  *
  * The paper assembled 47 data-pattern-transformation tasks from SyGuS'17
  * PBE-strings (27), FlashFill (10), BlinkFill (4), PredProg (3) and
  * Microsoft PROSE (3); the assembled corpus was never released. We
  * reconstruct each source's share with synthetic tasks of matching data
  * types and approximate size/length statistics, preserving the properties
  * the evaluation depends on: per-task format heterogeneity, at least one
  * record already in the target form (the paper's own preprocessing,
  * Appendix D), and the documented failure modes (advanced conditionals;
  * target clusters unrepresentative of some records, e.g. "McMillan";
  * the multi-entity "popl-13.ecr" effort sink).
  *
  * All generators are deterministic (fixed seeds).
  */
object Benchmarks {

  /** One benchmark task: (raw input, expected output) per record. */
  final case class Task(
      id: String,
      source: String,      // SyGuS | FlashFill | BlinkFill | PredProg | Prose
      dataType: String,    // Table 6 "DataType" column
      data: Vector[(String, String)],
      notes: String = "",
  ) {
    def size: Int = data.size
    def avgLen: Double = if (data.isEmpty) 0 else data.map(_._1.length).sum.toDouble / data.size
    def maxLen: Int = data.map(_._1.length).max
  }

  // ---------------------------------------------------------------- helpers

  private def digits(r: Random, n: Int): String =
    (1 to n).map(_ => r.nextInt(10)).mkString

  private def area(r: Random): String = (r.nextInt(700) + 200).toString

  /** Fixed-length name pools (4-letter firsts, 5-letter lasts) keep tasks
    * single-pattern unless heterogeneity is introduced deliberately.
    */
  private val firsts4 = Vector("John", "Mary", "Kate", "Paul", "Eric", "Anna", "Carl", "Nina", "Owen", "Lisa")
  private val lasts5  = Vector("Smith", "Jones", "Brown", "Davis", "Green", "Baker", "Adams", "White", "Moore", "Kelly")

  private val cities1 = Vector("Chicago", "Seattle", "Boston", "Denver", "Austin", "Portland", "Houston", "Phoenix")
  private val cities2 = Vector("San Diego", "Ann Arbor", "New York", "Los Angeles", "San Jose", "Fort Worth")
  private val states  = Vector("CA", "MI", "NY", "TX", "WA", "MA", "IL", "CO")
  private val univs   = Vector("MIT", "UCLA", "UCSD", "NYU", "CMU", "USC", "RIT", "FSU")

  private def cycle[A](xs: Vector[A], i: Int): A = xs(i % xs.size)

  /** Independent random pick — avoids the aligned-cycle trap where two
    * pools of equal size always co-occur, collapsing whole clusters into
    * one repeated string (which would degenerate constant discovery).
    */
  private def pick[A](r: Random, xs: Vector[A]): A = xs(r.nextInt(xs.size))

  /** Build rows: `correct` target-form rows first (raw == expected), then
    * ill-formatted rows produced by `mk(i) = (raw, expected)`.
    */
  private def rows(correct: Seq[String], nIll: Int)(mk: Int => (String, String)): Vector[(String, String)] =
    correct.map(s => (s, s)).toVector ++ (0 until nIll).map(mk)

  // ------------------------------------------------------------- SyGuS (27)

  /** Two-format name inputs: "First Last" and "First P. Last". */
  private def nameRows(seed: Int, nIll: Int, out: (String, String, String) => String,
                       correctOf: Int => String, nCorrect: Int = 8,
                       withMiddle: Boolean = true): Vector[(String, String)] = {
    val r = new Random(seed)
    rows((0 until nCorrect).map(correctOf), nIll) { i =>
      val f = pick(r, firsts4); val l = pick(r, lasts5)
      val m = ('A' + r.nextInt(7)).toChar.toString
      if (withMiddle && i % 3 == 2)
        (s"$f $m. $l", out(f, l, m))
      else (s"$f $l", out(f, l, ""))
    }
  }

  private val sygusFirstname = Task(
    "sygus-firstname-long", "SyGuS", "human name",
    nameRows(11, 56, (f, _, _) => f, i => cycle(firsts4, i)),
  )

  private val sygusLastname = Task(
    "sygus-lastname-long", "SyGuS", "human name",
    nameRows(12, 56, (_, l, _) => l, i => cycle(lasts5, i)),
  )

  private val sygusInitials = Task(
    "sygus-initials-long", "SyGuS", "human name",
    nameRows(13, 56, (f, l, _) => s"${f.head}.${l.head}.",
             i => s"${cycle(firsts4, i).head}.${cycle(lasts5, i + 2).head}.",
             withMiddle = false),
  )

  private val sygusNameCombine = Task(
    "sygus-name-combine-long", "SyGuS", "human name",
    nameRows(14, 56, (f, l, _) => s"$l, $f",
             i => s"${cycle(lasts5, i)}, ${cycle(firsts4, i + 1)}"),
  )

  private val sygusReverseName = Task(
    "sygus-reverse-name-long", "SyGuS", "human name", {
      val r = new Random(15)
      rows((0 until 8).map(i => s"${cycle(firsts4, i)} ${cycle(lasts5, i + 3)}"), 52) { _ =>
        val f = pick(r, firsts4); val l = pick(r, lasts5)
        (s"$l $f", s"$f $l") // "Smith John" -> "John Smith"
      }
    },
  )

  private val sygusNameCombine2 = Task(
    "sygus-name-combine-2-long", "SyGuS", "human name",
    nameRows(16, 56, (f, l, _) => s"${f.head}. $l",
             i => s"${cycle(firsts4, i).head}. ${cycle(lasts5, i)}", withMiddle = false),
  )

  private val sygusNameCombine3 = Task(
    "sygus-name-combine-3-long", "SyGuS", "human name",
    nameRows(17, 56, (f, l, _) => s"$l ${f.head}.",
             i => s"${cycle(lasts5, i)} ${cycle(firsts4, i).head}.", withMiddle = false),
  )

  private val sygusTitleName = Task(
    "sygus-title-name-long", "SyGuS", "human name", {
      val r = new Random(18)
      rows((0 until 8).map(i => cycle(lasts5, i)), 52) { _ =>
        val f = pick(r, firsts4); val l = pick(r, lasts5)
        (s"Dr. $f $l", l)
      }
    },
  )

  /** phone-1/2/3: extract first/middle/last segment of "938-242-504". */
  private def phoneSeg(id: String, seed: Int, pick: Int) = Task(
    id, "SyGuS", "phone number", {
      val r = new Random(seed)
      rows((0 until 8).map(_ => digits(r, 3)), 48) { _ =>
        val segs = Vector(area(r), digits(r, 3), digits(r, 3))
        (segs.mkString("-"), segs(pick))
      }
    },
  )
  private val sygusPhone1 = phoneSeg("sygus-phone-1-long", 21, 0)
  private val sygusPhone2 = phoneSeg("sygus-phone-2-long", 22, 1)
  private val sygusPhone3 = phoneSeg("sygus-phone-3-long", 23, 2)

  private val sygusPhone4 = Task(
    "sygus-phone-4-long", "SyGuS", "phone number", {
      val r = new Random(24)
      rows((0 until 8).map(_ => area(r)), 48) { _ =>
        val (a, b, c, d) = (area(r), digits(r, 3), digits(r, 3), digits(r, 3))
        (s"+$a $b-$c-$d", a)
      }
    },
  )

  /** Format-conversion phones: two ill formats per task (the SyGuS "-long"
    * variants are the heterogeneous ones), one fixed target format.
    */
  private def phoneConv(id: String, seed: Int,
                        from1: (String, String, String) => String,
                        from2: (String, String, String) => String,
                        to: (String, String, String) => String) = Task(
    id, "SyGuS", "phone number", {
      val r = new Random(seed)
      rows((0 until 10).map { _ =>
        val (a, b, c) = (area(r), digits(r, 3), digits(r, 4)); to(a, b, c)
      }, 45) { i =>
        val (a, b, c) = (area(r), digits(r, 3), digits(r, 4))
        val from = if (i % 3 == 2) from2 else from1
        (from(a, b, c), to(a, b, c))
      }
    },
  )
  private val sygusPhone5 = phoneConv("sygus-phone-5-long", 25,
    (a, b, c) => s"$a.$b.$c", (a, b, c) => s"$a-$b-$c", (a, b, c) => s"($a) $b-$c")
  private val sygusPhone6 = phoneConv("sygus-phone-6-long", 26,
    (a, b, c) => s"($a) $b-$c", (a, b, c) => s"+1 $a $b-$c", (a, b, c) => s"$a.$b.$c")
  private val sygusPhone7 = phoneConv("sygus-phone-7-long", 27,
    (a, b, c) => s"$a $b $c", (a, b, c) => s"($a) $b $c", (a, b, c) => s"$a-$b-$c")
  private val sygusPhone8 = phoneConv("sygus-phone-8-long", 28,
    (a, b, c) => s"+1 $a $b $c", (a, b, c) => s"1.$a.$b.$c", (a, b, c) => s"($a) $b-$c")

  private val sygusPhone9 = Task(
    "sygus-phone-9-long", "SyGuS", "phone number", {
      val r = new Random(29)
      rows((0 until 8).map { _ => s"${area(r)}.${digits(r, 3)}.${digits(r, 3)}.${digits(r, 3)}" }, 48) { _ =>
        val (a, b, c, d) = (area(r), digits(r, 3), digits(r, 3), digits(r, 3))
        (s"+$a $b-$c-$d", s"$a.$b.$c.$d")
      }
    },
  )

  /** Table 5 task 3 ("phone-10-long"): 100 rows, 5 formats, one target. */
  val sygusPhone10: Task = Task(
    "sygus-phone-10-long", "SyGuS", "phone number", {
      val r = new Random(30)
      val mk = () => (area(r), digits(r, 3), digits(r, 3))
      val correct = (0 until 55).map { _ => val (a, b, c) = mk(); s"+1 ($a) $b-$c" }
      var i = -1
      rows(correct, 45) { _ =>
        i += 1
        val (a, b, c) = mk()
        val raw = i % 4 match {
          case 0 => s"$a.$b.$c"
          case 1 => s"$a-$b-$c"
          case 2 => s"($a)$b-$c"
          case 3 => s"+1 $a $b $c"
        }
        (raw, s"+1 ($a) $b-$c")
      }
    },
  )

  /** Shared university rows: "ACRO, City, ST". */
  /** University rows; when `dashVariant` is set, every third record uses
    * the "ACRO - City - ST" layout for heterogeneity.
    */
  private def univRows(seed: Int, nIll: Int, correct: Seq[String],
                       out: (String, String, String) => String,
                       dashVariant: Boolean = false): Vector[(String, String)] = {
    val r = new Random(seed)
    rows(correct, nIll) { i =>
      val u = pick(r, univs); val c = pick(r, cities1); val s = pick(r, states)
      val raw = if (dashVariant && i % 3 == 2) s"$u - $c - $s" else s"$u, $c, $s"
      (raw, out(u, c, s))
    }
  }

  private val sygusUniv1 = Task("sygus-univ-1-long", "SyGuS", "university name",
    univRows(31, 32, (0 until 8).map(i => cycle(cities1, i)), (_, c, _) => c, dashVariant = true))
  private val sygusUniv2 = Task("sygus-univ-2-long", "SyGuS", "university name",
    univRows(32, 32, (0 until 8).map(i => cycle(states, i)), (_, _, s) => s))
  private val sygusUniv3 = Task("sygus-univ-3-long", "SyGuS", "university name",
    univRows(33, 32, (0 until 8).map(i => s"${cycle(cities1, i)}, ${cycle(states, i)}"),
             (_, c, s) => s"$c, $s"))
  private val sygusUniv4 = Task("sygus-univ-4-long", "SyGuS", "university name",
    univRows(34, 32, (0 until 8).map(i => cycle(univs, i)), (u, _, _) => u, dashVariant = true))
  private val sygusUniv5 = Task("sygus-univ-5-long", "SyGuS", "university name",
    univRows(35, 32, (0 until 8).map(i => s"${cycle(univs, i)} (${cycle(states, i)})"),
             (u, _, s) => s"$u ($s)"))
  private val sygusUniv6 = Task("sygus-univ-6-long", "SyGuS", "university name",
    univRows(36, 32, (0 until 8).map(i => s"${cycle(states, i)}: ${cycle(univs, i)}"),
             (u, _, s) => s"$s: $u"))

  private val sygusBikes = Task(
    "sygus-bikes-long", "SyGuS", "car model ids", {
      val models = Vector("Mondego", "Veloce", "Strada", "Corsa", "Aprica", "Bellino")
      val r = new Random(37)
      rows((0 until 6).map(i => cycle(models, i)), 44) { i =>
        val m = pick(r, models)
        val raw = if (i % 3 == 2) s"$m v${r.nextInt(8) + 1}.${r.nextInt(10)}"
                  else s"$m ${r.nextInt(8) + 1}.${r.nextInt(10)}"
        (raw, m)
      }
    },
  )

  private val sygusAddrCity = Task(
    "sygus-address-city-long", "SyGuS", "address", {
      val r = new Random(39)
      rows((0 until 6).map(i => cycle(cities2, i)), 40) { _ =>
        val c = pick(r, cities2); val s = pick(r, states)
        (s"${r.nextInt(900) + 100} Main St, $c, $s ${digits(r, 5)}", c)
      }
    },
  )

  private val sygusAddrState = Task(
    "sygus-address-state-long", "SyGuS", "address", {
      val r = new Random(40)
      rows((0 until 8).map(i => cycle(states, i)), 40) { _ =>
        val c = pick(r, cities1); val s = pick(r, states)
        (s"${r.nextInt(900) + 100} Oak Ave, $c, $s ${digits(r, 5)}", s)
      }
    },
  )

  // --------------------------------------------------------- FlashFill (10)

  private val ffEx1Product = Task(
    "ff-ex1-quantity", "FlashFill", "product name", {
      val words = Vector("BTR KRNL WK CORN", "CAMP DRY DBL NDL", "CHORE BOY HD SC SPNG", "FRENCH WORCESTER")
      val r = new Random(41)
      rows(Seq("15Z", "20Z"), 8) { i =>
        val q = s"${r.nextInt(80) + 10}Z"
        (s"${cycle(words, i)} $q", q)
      }
    },
  )

  private val ffEx2Log = Task(
    "ff-ex2-log", "FlashFill", "log entry", {
      val r = new Random(42)
      rows(Seq("404", "500"), 8) { _ =>
        val code = (r.nextInt(400) + 100).toString
        val host = s"srv${r.nextInt(9) + 1}"
        (s"ERROR $code at $host port ${r.nextInt(9000) + 1000}", code)
      }
    },
  )

  private val ffEx3Dir = Task(
    "ff-ex3-dir", "FlashFill", "file directory", {
      val users = Vector("alice", "bob", "carol", "dave")
      val files = Vector("report", "summary", "notes", "draft")
      val exts = Vector("txt", "pdf", "doc")
      rows(Seq("readme.txt", "index.doc"), 8) { i =>
        val depth = i % 3 // variable-depth paths
        val mid = Vector("docs", "work/docs", "work/old/docs")(depth)
        val f = s"${cycle(files, i)}.${cycle(exts, i)}"
        (s"/home/${cycle(users, i)}/$mid/$f", f)
      }
    },
  )

  /** Table 4 (FlashFill Example 9): name normalization, exact paper rows
    * plus enough sibling rows to give each pattern representation.
    */
  val ffEx9Names: Task = Task(
    "ff-ex9-names", "FlashFill", "human name",
    Vector(
      ("Dr. Eran Yahav", "Yahav, E."),
      ("Fisher, K.", "Fisher, K."),
      ("Bill Gates, Sr.", "Gates, B."),
      ("Oege de Moor", "Moor, O."),
      ("Dr. Kathleen Fisher", "Fisher, K."),
      ("Sumit Gulwani, Sr.", "Gulwani, S."),
      ("Yahav, E.", "Yahav, E."),
      ("Rene de Kuiper", "Kuiper, R."),
      ("Gates, B.", "Gates, B."),
      ("Dr. Peter Norvig", "Norvig, P."),
    ),
  )

  /** Table 5 task 1 (FlashFill Example 11): 10 rows, "First Last" →
    * "Last, First"; sizes chosen to track the paper's AvgLen 11.8 / Max 14.
    */
  val ffEx11Names: Task = Task(
    "ff-ex11-names", "FlashFill", "human name",
    Vector(
      ("Barack Obama", "Obama, Barack"),
      ("George Bush", "Bush, George"),
      ("Ronald Reagan", "Reagan, Ronald"),
      ("Jimmy Carter", "Carter, Jimmy"),
      ("Gerald Ford", "Ford, Gerald"),
      ("Richard Nixon", "Nixon, Richard"),
      ("Bill Clinton", "Clinton, Bill"),
      ("Donald Trump", "Trump, Donald"),
      ("Obama, Barack", "Obama, Barack"),
      ("Bush, George", "Bush, George"),
    ),
  )

  /** FlashFill Example 13 analog: output depends on a keyword, not on the
    * string pattern — UniFi has no such conditional, so CLX must fail;
    * FlashFill learns the conditional from examples.
    */
  private val ffEx13Conditional = Task(
    "ff-ex13-conditional", "FlashFill", "file directory", {
      val pics = Vector("holiday", "beach", "sunset", "family")
      val docs = Vector("report", "budget", "minutes", "memo")
      rows(Seq("picture: holiday.jpg", "file: report.doc"), 8) { i =>
        if (i % 2 == 0) { val f = s"${cycle(pics, i / 2)}.jpg"; (f, s"picture: $f") }
        else { val f = s"${cycle(docs, i / 2)}.doc"; (f, s"file: $f") }
      }
    },
    notes = "requires an advanced conditional (keyword), inexpressible in UniFi",
  )

  private val ffDate = Task(
    "ff-date", "FlashFill", "date", {
      val r = new Random(43)
      rows(Seq("2013-01-15", "2014-11-03"), 8) { i =>
        val m = f"${r.nextInt(12) + 1}%02d"; val d = f"${r.nextInt(28) + 1}%02d"
        val y = (r.nextInt(30) + 1990).toString
        val raw = if (i % 3 == 2) s"$y $m $d" else s"$m/$d/$y"
        (raw, s"$y-$m-$d")
      }
    },
  )

  private val ffUrl = Task(
    "ff-url", "FlashFill", "url", {
      val doms = Vector("cs.umich.edu", "eecs.berkeley.edu", "cs.stanford.edu", "ee.mit.edu")
      rows(Seq("cs.umich.edu", "ee.mit.edu"), 8) { i =>
        val d = cycle(doms, i)
        (s"http://www.$d/index.html", d)
      }
    },
  )

  private val ffPhoneStd = Task(
    "ff-phone-std", "FlashFill", "phone number", {
      val r = new Random(44)
      val mk = () => (area(r), digits(r, 3), digits(r, 4))
      val correct = (0 until 4).map { _ => val (a, b, c) = mk(); s"($a) $b-$c" }
      var i = -1
      rows(correct, 8) { _ =>
        i += 1
        val (a, b, c) = mk()
        val raw = i % 3 match {
          case 0 => s"($a)$b-$c"
          case 1 => s"$a-$b-$c"
          case 2 => s"$a.$b.$c"
        }
        (raw, s"($a) $b-$c")
      }
    },
  )

  /** The "McMillan" failure (§7.4): the target cluster only exhibits
    * `<U><L>+` last names, so CLX never learns to extract `McMillan`.
    */
  private val ffMixedNames = Task(
    "ff-mixed-names", "FlashFill", "human name", {
      rows(Seq("Smith", "Jones", "Brown"), 9) { i =>
        if (i == 0) ("Bob McMillan", "McMillan")
        else {
          val f = cycle(firsts4, i); val l = cycle(lasts5, i)
          (s"$f $l", l)
        }
      }
    },
    notes = "target cluster lacks the <U><L><U><L>+ last-name pattern → CLX imperfect",
  )

  // --------------------------------------------------------- BlinkFill (4)

  /** Table 3 (BlinkFill Example 3): medical billing codes, the paper's
    * exact four rows plus siblings so each pattern has support.
    */
  val bfEx3Cpt: Task = Task(
    "bf-ex3-cpt", "BlinkFill", "product id",
    Vector(
      ("CPT-00350", "[CPT-00350]"),
      ("[CPT-00340", "[CPT-00340]"),
      ("[CPT-11536]", "[CPT-11536]"),
      ("CPT115", "[CPT-115]"),
      ("[CPT-00925]", "[CPT-00925]"),
      ("[CPT-33445]", "[CPT-33445]"),
      ("CPT-00441", "[CPT-00441]"),
      ("CPT-88120", "[CPT-88120]"),
      ("[CPT-00230", "[CPT-00230]"),
      ("CPT204", "[CPT-204]"),
      ("[CPT-115]", "[CPT-115]"),
    ),
  )

  private val bfCity = Task(
    "bf-city-country", "BlinkFill", "city name and country", {
      val pairs = Vector(("Ann Arbor", "USA"), ("New York", "USA"), ("San Jose", "USA"),
                         ("Los Angeles", "USA"), ("Fort Worth", "USA"), ("San Diego", "USA"))
      rows(pairs.take(3).map(_._1), 8) { i =>
        val (c, k) = cycle(pairs, i)
        (s"$c, $k", c)
      }
    },
  )

  private val bfProduct = Task(
    "bf-product-id", "BlinkFill", "product id", {
      val r = new Random(45)
      rows(Seq("QT300", "QT850"), 9) { _ =>
        val id = s"QT${digits(r, 3)}"
        (s"[${id}l]", id) // "[QT300l]" -> "QT300"
      }
    },
  )

  /** The "O'Brien" failure: apostrophe street names never appear in the
    * target cluster, so CLX cannot reproduce them.
    */
  private val bfAddress = Task(
    "bf-address", "BlinkFill", "address", {
      val streets = Vector("Main St", "Oak Ave", "Elm St", "Pine Rd")
      val r = new Random(46)
      rows(Seq("Main St", "Oak Ave", "Elm St"), 8) { i =>
        if (i == 0) (s"12 O'Brien St, Boston", "O'Brien St")
        else {
          val s = cycle(streets, i)
          (s"${r.nextInt(900) + 100} $s, ${cycle(cities1, i)}", s)
        }
      }
    },
    notes = "target cluster lacks the apostrophe street pattern → CLX imperfect",
  )

  // ---------------------------------------------------------- PredProg (3)

  /** Table 5 task 2 (PredProg Example 3): extract the city from a US
    * address; sizes track the paper's AvgLen 20.3 / Max 38.
    */
  val ppEx3Address: Task = Task(
    "pp-ex3-address", "PredProg", "address",
    Vector(
      ("155 Main St, San Diego, CA 92173", "San Diego"),
      ("14820 NE 36th Street, Redmond, WA 98052", "Redmond").copy(_1 = "14820 NE 36th St, Redmond, WA 98052"),
      ("12 S Michigan Ave, Chicago, IL 60603", "Chicago"),
      ("873 Broadway Ave, New York, NY 10003", "New York"),
      ("512 Elm St, Austin, TX 78701", "Austin"),
      ("77 Mass Ave, Boston, MA 02139", "Boston"),
      ("San Diego", "San Diego"),
      ("Chicago", "Chicago"),
      ("New York", "New York"),
      ("Austin", "Austin"),
    ),
  )

  private val ppName1 = Task(
    "pp-name-1", "PredProg", "human name", {
      rows(Seq("John Smith", "Mary Jones"), 8) { i =>
        val f = cycle(firsts4, i); val l = cycle(lasts5, i + 4)
        val raw = if (i % 3 == 2) s"Prof. $f $l" else s"Dr. $f $l"
        (raw, s"$f $l")
      }
    },
  )

  private val ppName2 = Task(
    "pp-name-2", "PredProg", "human name", {
      rows(Seq("Smith, J.", "Jones, M."), 8) { i =>
        val f = cycle(firsts4, i); val l = cycle(lasts5, i + 2)
        (s"$f $l", s"$l, ${f.head}.")
      }
    },
  )

  // ------------------------------------------------------------- Prose (3)

  private val proseCountry = Task(
    "prose-country-number", "Prose", "country and number", {
      val countries = Vector("Denmark", "Norway", "Sweden", "Finland", "Iceland", "Estonia")
      val r = new Random(47)
      rows(Seq("12", "85"), 38) { i =>
        val n = (r.nextInt(90) + 10).toString
        (s"${cycle(countries, i)}, $n", n)
      }
    },
  )

  /** The "mary-jane" failure: hyphenated local-parts never appear in the
    * target cluster; no UniFi plan can emit "mary-jane".
    */
  private val proseEmail = Task(
    "prose-email", "Prose", "email", {
      val users = Vector(("john", "doe"), ("jane", "roe"), ("alan", "kay"), ("ada", "byron"))
      val hosts = Vector("acme", "globex", "initech")
      val r = new Random(48)
      rows(Seq("john.doe", "jane.roe", "alan.kay", "ada.byron"), 36) { i =>
        if (i == 0) ("mary-jane@acme.com", "mary-jane")
        else {
          val (a, b) = pick(r, users); val h = pick(r, hosts)
          (s"$a.$b@$h.com", s"$a.$b")
        }
      }
    },
    notes = "hyphenated local-part absent from target cluster → CLX imperfect",
  )

  /** "popl-13.ecr" analog: person, affiliation, country — affiliations have
    * no shared syntax, so CLX needs many selections and repairs (Appendix E)
    * and FlashFill needs an example per shape.
    */
  private val prosePopl13 = Task(
    "prose-popl13", "Prose", "human name and affiliation", {
      val people = Vector("John Smith", "Mary Jones", "Li Wei", "Anna Brown", "Tom Park")
      val affils = Vector("INRIA", "MIT", "Univ. of Michigan", "ETH Zurich",
                          "Bell Labs", "UCLA", "Univ. of Tokyo", "TU Wien")
      val countries = Vector("France", "USA", "Japan", "Austria", "Switzerland")
      val r = new Random(49)
      rows(Seq("INRIA", "MIT", "Univ. of Michigan", "ETH Zurich", "Bell Labs",
               "Univ. of Tokyo", "TU Wien"), 33) { _ =>
        val p = pick(r, people); val a = pick(r, affils); val c = pick(r, countries)
        (s"$p, $a, $c", a)
      }
    },
    notes = "multi-entity names with no distinctive syntax → high CLX effort (Appendix E)",
  )

  // ----------------------------------------------------------------- corpus

  val all: Vector[Task] = Vector(
    sygusFirstname, sygusLastname, sygusInitials, sygusNameCombine, sygusReverseName,
    sygusNameCombine2, sygusNameCombine3, sygusTitleName,
    sygusPhone1, sygusPhone2, sygusPhone3, sygusPhone4, sygusPhone5,
    sygusPhone6, sygusPhone7, sygusPhone8, sygusPhone9, sygusPhone10,
    sygusUniv1, sygusUniv2, sygusUniv3, sygusUniv4, sygusUniv5, sygusUniv6,
    sygusBikes, sygusAddrCity, sygusAddrState,
    ffEx1Product, ffEx2Log, ffEx3Dir, ffEx9Names, ffEx11Names, ffEx13Conditional,
    ffDate, ffUrl, ffPhoneStd, ffMixedNames,
    bfEx3Cpt, bfCity, bfProduct, bfAddress,
    ppEx3Address, ppName1, ppName2,
    proseCountry, proseEmail, prosePopl13,
  )

  def bySource(source: String): Vector[Task] = all.filter(_.source == source)

  /** The three explainability-study tasks of Table 5. */
  val table5Tasks: Vector[(String, Task)] = Vector(
    ("Task1", ffEx11Names), ("Task2", ppEx3Address), ("Task3", sygusPhone10),
  )
}
