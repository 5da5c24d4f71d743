// perfbench: runs one named workload with a seed and prints its metrics.
//
//   perfbench --workload dashboard|adhoc_scan|ingest --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// Human-readable notes come first, then one "report" line holding every
// end-to-end metric that applies to the workload, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// BENCHMARK.json declares (--trace 0) or its per-layer metrics (--trace 1).
// Exits 1 when an operation failed or an answer check found a mismatch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dashboard|adhoc_scan|ingest --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Config;
  std::string workload;
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      config.work_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0) return Usage(argv[0]);
  Config defaults;
  if (!perfbench::DefaultConfig(workload, &defaults)) return Usage(argv[0]);
  defaults.seed = config.seed;
  defaults.seconds = config.seconds;
  defaults.trace = config.trace;
  defaults.work_dir = config.work_dir;

  std::printf("workload %s seed %llu seconds %g trace %d trans_rows %lld "
              "lanes %d\n",
              workload.c_str(), static_cast<unsigned long long>(defaults.seed),
              defaults.seconds, defaults.trace ? 1 : 0,
              static_cast<long long>(defaults.data.num_trans),
              sumtab::ThreadPool::HardwareParallelism());
  perfbench::RunResult result = perfbench::RunWorkload(defaults);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("report {\"workload\": %s, \"end_to_end\": %s}\n",
              perfbench::JsonString(workload).c_str(),
              result.end_to_end.ToJson().c_str());

  const perfbench::MetricSet& source =
      defaults.trace ? result.per_layer : result.end_to_end;
  perfbench::MetricSet declared;
  for (const std::string& name : defaults.trace ? perfbench::PerLayerNames()
                                                : perfbench::EndToEndNames()) {
    const perfbench::Metric* m = source.Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return 3;
    }
    declared.Set(name, m->value, m->unit);
  }
  bool ok = result.correct && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              declared.ToJson().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
