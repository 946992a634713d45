// The benchmark's own view of the served corpus and the checks every
// answer is held to.
//
// Mirror keeps weights, liveness and the raw metric payload (dense
// distances or feature vectors) exactly as the benchmark generated them,
// and folds each update epoch into them with its own code. Objectives are
// recomputed from the mirror with the benchmark's own arithmetic
// (Euclidean distances included), never through the program's problem or
// metric classes.
//
// Every checker returns an empty string when the answer passes and a
// one-line reason otherwise.
#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "rpc/wire.h"

namespace servebench {

class Mirror {
 public:
  // Dense corpus from a full symmetric n x n row-major matrix.
  static Mirror Dense(const std::vector<double>& weights,
                      const std::vector<double>& matrix, double lambda);
  // Feature-vector corpus from n x dim row-major embeddings.
  static Mirror Vector(const std::vector<double>& weights,
                       const std::vector<double>& rows, int dim,
                       double lambda);

  bool dense() const { return dim_ == 0; }
  int dim() const { return dim_; }
  int universe() const { return static_cast<int>(weights_.size()); }
  int live() const { return live_; }
  bool alive(int id) const { return alive_[id] != 0; }
  double weight(int id) const { return weights_[id]; }
  double lambda() const { return lambda_; }
  std::uint64_t version() const { return version_; }
  double Distance(int u, int v) const;
  // Feature vector of `id` (vector corpora only).
  const double* VectorRow(int id) const {
    return vectors_.data() + static_cast<std::size_t>(id) * dim_;
  }

  // Folds one update epoch (the same CorpusUpdate values handed to the
  // program) and advances the version by one.
  void Apply(const std::vector<diverse::engine::CorpusUpdate>& epoch);

  // Quality of `id` under a query's relevance (corpus weight when the
  // relevance is empty; 0 past its end, as the program documents).
  double Quality(int id, const std::vector<double>& relevance) const;
  // phi(S) = sum of qualities + lambda * sum over unordered pairs of d.
  double Objective(const std::vector<int>& set,
                   const std::vector<double>& relevance,
                   double lambda) const;

 private:
  int dim_ = 0;
  double lambda_ = 0.0;
  std::uint64_t version_ = 0;
  int live_ = 0;
  std::vector<double> weights_;
  std::vector<char> alive_;
  std::vector<std::vector<double>> rows_;  // dense: d(u, .) per id
  std::vector<double> vectors_;            // vector: universe x dim
};

// Bitwise equality of two doubles.
bool SameBits(double a, double b);

// One answer as the program reported it.
struct Answer {
  std::vector<int> elements;
  double objective = 0.0;
  std::uint64_t version = 0;
};

// Relative tolerance on recomputed objectives and on swap gains.
inline constexpr double kRelTol = 1e-9;

// Served at the mirror's version; ids in range, alive and distinct;
// |S| = min(p, live); objective within kRelTol of phi(S) from the mirror.
std::string CheckAnswer(const Mirror& mirror, const Answer& answer, int p,
                        const std::vector<double>& relevance,
                        double lambda);

// Partition matroid over the mirror's ids: block_of[id] in [0, caps.size()).
struct Partition {
  std::vector<int> block_of;
  std::vector<int> caps;
};

// `set` is independent and a basis of the partition restricted to live
// ids.
std::string CheckPartitionBasis(const Mirror& mirror,
                                const std::vector<int>& set,
                                const Partition& partition);

// Theorem 2's stopping rule: no feasible single swap (out of S, live id
// not in S in) raises phi by more than kRelTol * max(|phi|, 1).
std::string CheckNoImprovingSwap(const Mirror& mirror,
                                 const std::vector<int>& set,
                                 const Partition& partition,
                                 const std::vector<double>& relevance,
                                 double lambda);

// Brute-force optima over live ids (small instances only): the best set
// of size min(p, live), and the best independent set of the partition.
double BruteForceCardinality(const Mirror& mirror, int p,
                             const std::vector<double>& relevance,
                             double lambda);
double BruteForcePartition(const Mirror& mirror, const Partition& partition,
                           const std::vector<double>& relevance,
                           double lambda);

// A restored corpus version equals the mirror bit for bit: version,
// id space, weights, liveness and metric payload.
std::string CheckRestored(const Mirror& mirror,
                          const diverse::engine::CorpusSnapshot& restored);

// The epoch just applied is visible: `published` is the mirror's version
// (the previous one + 1) and carries the epoch's values.
std::string CheckEpochVisible(
    const Mirror& mirror, const diverse::engine::CorpusSnapshot& published,
    const std::vector<diverse::engine::CorpusUpdate>& epoch);

// Wire codec round trips: the decoded message equals the original field
// for field (doubles bit for bit).
std::string CheckRoundTrip(const diverse::rpc::ShardQueryRequest& original,
                           const diverse::rpc::ShardQueryRequest& decoded);
std::string CheckRoundTrip(const diverse::rpc::ShardQueryResponse& original,
                           const diverse::rpc::ShardQueryResponse& decoded);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
