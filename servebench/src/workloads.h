// The benchmark's workloads: dense-churn, vector-mixed, loopback-sharded.
//
// Each run generates its inputs from the seed, brings the serving stack
// up (timed once, cold: setup_s), then repeats one fixed block of
// operations from that same starting state until --seconds have passed.
// The first block is the verification pass: every answer is checked
// against the benchmark's mirror of the corpus and recorded. Later blocks
// must reproduce the recorded answers bit for bit; their timings feed the
// estimates (estimate.h).
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced mode writes its span file.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  // End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
