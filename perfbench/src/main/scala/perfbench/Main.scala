package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

/** Command line: ``--workload <name> --seed <n> --seconds <s> --trace <0|1>``.
  *
  * Prints one line per metric, then, as the last line of standard output,
  * a JSON object with ``correct``, ``attempted``, ``failed`` and
  * ``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
  * ones. Exits non-zero when any operation returned a wrong edge. The run
  * record, with every sample and span, goes to
  * ``<perfbench.out>/runs/<workload>-seed<n>-trace<t>.json``.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    require(args.length % 2 == 0, "expected --flag value pairs")
    val kv = args.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    require(kv.keySet.subsetOf(known), s"unknown flags ${(kv.keySet -- known).mkString(", ")}")
    require(known.subsetOf(kv.keySet), s"missing flags ${(known -- kv.keySet).mkString(", ")}")
    val a = Args(kv("--workload"), kv("--seed").toLong, kv("--seconds").toInt, kv("--trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    })
    require(Workloads.Names.contains(a.workload),
      s"unknown workload '${a.workload}'; expected one of ${Workloads.Names.mkString(", ")}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  /** Local Spark on every core. Adaptive execution is off: it re-plans each
    * stage at run time, which added jitter and fixed cost per job at these
    * sizes. Shuffles use two partitions per core.
    */
  def session(out: String): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", s"$out/spark-local")
      .config("spark.sql.warehouse.dir", s"$out/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = try parse(argv) catch {
      case e: IllegalArgumentException =>
        Console.err.println(s"perfbench: ${e.getMessage}")
        sys.exit(2)
    }
    val out = sys.props.getOrElse("perfbench.out", ".bench_build/perfbench")
    val spark = session(out)
    val sessionS = (System.nanoTime() - t0) / 1e9
    val result = try Bench.run(spark, Workloads.byName(args.workload), args.seed, args.seconds.toDouble,
      args.trace, sessionS)
    finally spark.stop()

    val recordPath = Paths.get(out, "runs", s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    Files.createDirectories(recordPath.getParent)
    Files.write(recordPath, Json.write(result.record ++ Map(
      "metrics" -> (result.metrics ++ result.printed).map(m =>
        ListMap("name" -> m.name, "value" -> m.value, "unit" -> m.unit, "samples" -> m.samples)),
      "spans" -> result.spans.map(s => ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> (s.startNs - t0), "end_ns" -> (s.endNs - t0))))).getBytes(StandardCharsets.UTF_8))

    println(s"perfbench ${args.workload} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      s"nproc=${result.record("nproc")} spark=${result.record("spark")} record=$recordPath")
    (result.metrics ++ result.printed).foreach { m =>
      println(f"${m.name}%-28s ${m.value}%14.6f ${m.unit}%-6s (samples=${m.samples})")
    }
    result.errors.foreach(e => println(s"MISMATCH: $e"))
    println(Json.write(ListMap(
      "correct" -> result.correct,
      "attempted" -> result.attempted,
      "failed" -> result.failed,
      "metrics" -> ListMap(result.metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)): _*))))
    sys.exit(if (result.correct) 0 else 1)
  }
}
