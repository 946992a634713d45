// Noise-robust estimates of operation times on a host whose speed drifts
// between slow and fast phases lasting seconds.
//
// A run repeats one fixed block of operations (a "pass") from the same
// starting state until its time is up, so every operation is replayed
// once per pass, the replays spread over the whole run. Each timed family
// (queries, epochs, checkpoints, the segments that make up a pass's wall
// clock) keeps its samples per pass, in operation order. An estimate keeps
// each operation's fastest replays and takes its quantile over them: one
// fast window anywhere in the run is enough for every operation to have
// been timed in it, whereas a whole pass rarely runs inside one.
#ifndef SERVEBENCH_ESTIMATE_H_
#define SERVEBENCH_ESTIMATE_H_

#include <vector>

namespace servebench {

// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);

class Family {
 public:
  void BeginPass() { passes_.emplace_back(); }
  void Add(double seconds) { passes_.back().push_back(seconds); }
  int passes() const { return static_cast<int>(passes_.size()); }
  double PassTotal(int pass) const;

  // The `keep` fastest replays of each operation (by position in the
  // block), pooled over the operations, from pass `first_pass` on (earlier
  // passes verify and warm up). Every pass holds the same operations in
  // the same order.
  std::vector<double> FastestReplays(int first_pass, int keep) const;

 private:
  std::vector<std::vector<double>> passes_;
};

}  // namespace servebench

#endif  // SERVEBENCH_ESTIMATE_H_
