package perfbench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Every workload at toy scale, untraced and traced, so the command cannot
  * rot: outputs are correct and the metrics match BENCHMARK.json.
  */
class SmokeSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = Main.session(new File(System.getProperty("java.io.tmpdir"), "perfbench-test").getPath)

  override def afterAll(): Unit = spark.stop()

  private val declared = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
  private def names(key: String): Seq[String] = declared.get(key).elements().asScala.map(_.get("name").asText()).toSeq
  private def units(key: String): Seq[String] = declared.get(key).elements().asScala.map(_.get("unit").asText()).toSeq

  test("BENCHMARK.json declares the workloads and metrics the command reports") {
    assert(declared.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq === Workloads.Names)
    assert(names("end_to_end") === Bench.EndToEnd.map(_._1))
    assert(units("end_to_end") === Bench.EndToEnd.map(_._2))
    assert(names("per_layer") === Bench.PerLayer.map(_._1))
    assert(units("per_layer") === Bench.PerLayer.map(_._2))
  }

  for (name <- Workloads.Names; trace <- Seq(false, true))
    test(s"$name at toy scale, trace=$trace") {
      val r = Bench.run(spark, Workloads.byName(name, toy = true), seed = 3L, seconds = 1.0, trace, sessionS = 0.0)
      assert(r.correct, r.errors)
      assert(r.failed === 0L)
      assert(r.attempted > 0L)
      val expected = if (trace) Bench.PerLayer else Bench.EndToEnd
      assert(r.metrics.map(m => m.name -> m.unit) === expected)
      r.metrics.foreach(m => assert(!m.value.isNaN && !m.value.isInfinite, m))
      if (trace) {
        val byName = r.metrics.map(m => m.name -> m.value).toMap
        assert(byName("sketch.pairs") === Reference.numPairs(Workloads.byName(name, toy = true).source.n).toDouble)
        assert(byName("sweep.tasks") > 0.0)
        assert(r.spans.exists(_.name == "sweep"))
      } else {
        val recall = r.metrics.find(_.name == "edge_recall").get.value
        assert(recall > 0.0 && recall <= 1.0)
      }
    }

  test("argument parsing rejects unknown workloads and flags") {
    intercept[IllegalArgumentException](Main.parse(Array("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")))
    intercept[IllegalArgumentException](Main.parse(Array("--workload", "climate-build", "--seed", "1", "--seconds", "1")))
    intercept[IllegalArgumentException](Main.parse(Array("--workload", "climate-build", "--seed", "1", "--seconds", "1", "--trace", "2")))
    assert(Main.parse(Array("--trace", "1", "--seconds", "5", "--seed", "7", "--workload", "tomborg-lowfreq")) ===
      Main.Args("tomborg-lowfreq", 7L, 5, trace = true))
  }
}
