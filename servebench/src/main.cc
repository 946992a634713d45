// servebench: one run of one serving workload.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) the per-layer
// metrics, and write their spans to <out-dir>/trace-<workload>-<seed>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 100.0) {
        return Usage("--seconds takes a number in (0, 100]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : servebench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage(("unknown workload " + config.workload).c_str());

  servebench::RunResult result = servebench::RunWorkload(config);
  std::string metrics;
  for (const servebench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.correct = false;
      result.errors.push_back(metric.name + " is not finite");
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    metrics += (metrics.empty() ? "\"" : ", \"") + metric.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "servebench: check failed: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  return 0;
}
