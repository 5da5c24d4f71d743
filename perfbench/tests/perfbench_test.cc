// Unit test of perfbench's own code: the tail-percentile rule, op-stream
// determinism, span self-time arithmetic, and the names of every metric the
// workloads emit (each workload runs once, shrunk, traced and untraced).
//
//   perfbench_test        exit 0 when every check passes
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "stream.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestTailRule() {
  using perfbench::TailOf;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  perfbench::Tail tail = TailOf(v);
  Expect(tail.value == 990, "tail of 1..1000 is 990");
  Expect(tail.percentile == 99.0, "tail of 1000 samples sits at p99");
  int beyond = 0;
  for (double x : v) beyond += x > tail.value;
  Expect(beyond == 10, "exactly ten samples beyond the tail");

  std::vector<double> many;
  for (int i = 1; i <= 20000; ++i) many.push_back(i);
  tail = TailOf(many);
  Expect(tail.percentile == 99.0 && tail.value == 19800,
         "20000 samples: capped at p99, 200 beyond");

  std::vector<double> some;
  for (int i = 1; i <= 200; ++i) some.push_back(i);
  tail = TailOf(some);
  Expect(tail.value == 190 && tail.percentile == 95.0,
         "200 samples: ten beyond, p95");

  std::vector<double> eleven = {5, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6};
  tail = TailOf(eleven);
  Expect(tail.value == 1 && tail.samples == 11, "11 samples: the minimum");

  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  tail = TailOf(ten);
  Expect(tail.percentile == 50 && tail.value == 5.5,
         "10 samples: no percentile has ten beyond, median reported");
}

std::vector<std::string> DashboardTexts(uint64_t seed) {
  sumtab::data::CardSchemaParams data;
  perfbench::DashboardStream stream(seed, data);
  std::vector<std::string> texts;
  for (const perfbench::QueryOp& op : stream.tiles()) texts.push_back(op.sql);
  for (int r = 0; r < 5; ++r) {
    for (const perfbench::QueryOp& op : stream.NextRound()) {
      texts.push_back(op.tmpl + "|" + op.shape + "|" + op.sql);
    }
  }
  return texts;
}

std::vector<std::string> AdhocTexts(uint64_t seed) {
  perfbench::AdhocStream stream(seed);
  std::vector<std::string> texts;
  for (int r = 0; r < 5; ++r) {
    for (const perfbench::QueryOp& op : stream.NextRound()) {
      texts.push_back(op.sql);
    }
  }
  for (const perfbench::QueryOp& op : stream.ShapeProbes()) {
    texts.push_back(op.sql);
  }
  return texts;
}

std::vector<std::string> AppendTexts(uint64_t seed) {
  sumtab::data::CardSchemaParams data;
  perfbench::Rng rng(seed);
  std::vector<std::string> texts;
  for (const sumtab::Row& row : perfbench::AppendBatch(&rng, 0, 50, data)) {
    std::string text;
    for (const sumtab::Value& v : row) text += v.ToString() + ",";
    texts.push_back(text);
  }
  return texts;
}

void TestStreamsFollowSeed() {
  Expect(DashboardTexts(7) == DashboardTexts(7), "dashboard: same seed");
  Expect(DashboardTexts(7) != DashboardTexts(8), "dashboard: other seed");
  Expect(AdhocTexts(7) == AdhocTexts(7), "adhoc_scan: same seed");
  Expect(AdhocTexts(7) != AdhocTexts(8), "adhoc_scan: other seed");
  Expect(AppendTexts(7) == AppendTexts(7), "append batch: same seed");
  Expect(AppendTexts(7) != AppendTexts(8), "append batch: other seed");

  sumtab::data::CardSchemaParams data;
  perfbench::DashboardStream stream(3, data);
  std::vector<perfbench::QueryOp> round = stream.NextRound();
  int tiles = 0;
  for (const perfbench::QueryOp& op : round) tiles += op.shape == "tile";
  Expect(round.size() == 20 && tiles == 10, "dashboard round: half tiles");
  perfbench::AdhocStream adhoc(3);
  Expect(adhoc.NextRound().size() == 7, "adhoc_scan round: 7 queries");
  Expect(adhoc.ShapeProbes().size() == 6, "adhoc_scan: one probe per shape");
}

void TestSelfTimes() {
  perfbench::Tracer tracer;
  int64_t root = tracer.Record("op", 1, -1, 0, 100);
  int64_t a = tracer.Record("a", 1, root, 10, 30);
  tracer.Record("b", 1, root, 20, 50);   // overlaps a: counted once
  tracer.Record("c", 1, root, 80, 120);  // sticks out of the root: clipped
  tracer.Record("a.child", 1, a, 15, 25);
  tracer.Record("other", 2, -1, 0, 7);   // another op's root, no children
  std::vector<int64_t> self = perfbench::SelfTimes(tracer.spans());
  Expect(self[0] == 100 - 40 - 20, "root self time: 100 - [10,50] - [80,100]");
  Expect(self[1] == 20 - 10, "a self time excludes its child");
  Expect(self[2] == 30 && self[3] == 40 && self[4] == 10 && self[5] == 7,
         "leaf self time is the duration");
  auto by_name = perfbench::SelfTimeByName(tracer.spans());
  Expect(by_name["op"].calls == 1 && by_name["op"].self_ns == 40 &&
             by_name["op"].total_ns == 100,
         "self time summed by name");
  for (const perfbench::Span& s : tracer.spans()) {
    if (s.name != "other") Expect(s.op_id == 1, "spans of one op share its id");
  }
}

void TestMetricNames() {
  Expect(perfbench::ValidMetricName("engine.scan.ns_per_row.tN"), "valid");
  Expect(!perfbench::ValidMetricName("p50 ms"), "space rejected");
  Expect(!perfbench::ValidMetricName("a/b"), "slash rejected");
  Expect(!perfbench::ValidMetricName(""), "empty rejected");
  for (const char* workload : {"dashboard", "adhoc_scan", "ingest"}) {
    for (bool trace : {false, true}) {
      perfbench::Config config;
      Expect(perfbench::DefaultConfig(workload, &config), workload);
      config.seed = 11;
      config.seconds = 0.3;
      config.trace = trace;
      config.setups = 1;
      config.probe_reps = 1;
      config.check_share = 0.2;
      config.data.num_trans = 20000;
      config.data.num_accounts = std::min(config.data.num_accounts, 500);
      config.data.num_customers = std::min(config.data.num_customers, 100);
      perfbench::RunResult result = perfbench::RunWorkload(config);
      std::string tag = std::string(workload) + (trace ? " traced" : "");
      for (const std::string& note : result.notes) {
        if (note.rfind("FAILED", 0) == 0) std::printf("%s: %s\n", tag.c_str(), note.c_str());
      }
      Expect(result.correct && result.failed == 0, tag + ": no failures");
      Expect(result.attempted > 0, tag + ": ops attempted");
      const perfbench::MetricSet& emitted =
          trace ? result.per_layer : result.end_to_end;
      for (const perfbench::Metric& m : emitted.metrics()) {
        Expect(perfbench::ValidMetricName(m.name), tag + ": name " + m.name);
      }
      for (const perfbench::Metric& m : result.end_to_end.metrics()) {
        Expect(perfbench::ValidMetricName(m.name), tag + ": name " + m.name);
      }
      const std::vector<std::string>& declared =
          trace ? perfbench::PerLayerNames() : perfbench::EndToEndNames();
      for (const std::string& name : declared) {
        Expect(emitted.Find(name) != nullptr, tag + ": emits " + name);
      }
      for (const std::string& name : perfbench::EndToEndNames()) {
        const perfbench::Metric* m = result.end_to_end.Find(name);
        Expect(m != nullptr && m->value > 0, tag + ": " + name + " > 0");
      }
    }
  }
}

}  // namespace

int main() {
  TestTailRule();
  TestStreamsFollowSeed();
  TestSelfTimes();
  TestMetricNames();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
