// Seeded input generators for the serving benchmark.
//
// Every input the benchmark feeds the program — corpora, per-user
// relevance, update epochs, query parameters — comes from here, derived
// from the run's --seed through the benchmark's own SplitMix64 stream. The
// program's own generators (data/synthetic, engine/workload) are not used,
// so a change to them cannot change what is measured.
#ifndef SERVEBENCH_GEN_H_
#define SERVEBENCH_GEN_H_

#include <cstdint>
#include <vector>

namespace servebench {

// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, bound).
  int Below(int bound);
  // Standard normal (Box–Muller).
  double Gaussian();

 private:
  std::uint64_t state_;
};

// Stateless 64-bit mix of (seed, key) — stable per-id attributes such as
// an element's source group.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t key);

// Paper §7.1 synthetic corpus: weights U[0,1], distances U[1,2] on every
// unordered pair (any values in [1,2] satisfy the triangle inequality).
// `matrix` is the full symmetric n x n row-major matrix, zero diagonal.
struct DenseInputs {
  int n = 0;
  std::vector<double> weights;
  std::vector<double> matrix;
};
DenseInputs MakeDenseInputs(int n, Rng& rng);

// Clustered embeddings: `clusters` centres drawn N(0,1) per coordinate,
// each point its centre plus N(0, spread^2) noise; weights U[0,1].
struct VectorInputs {
  int n = 0;
  int dim = 0;
  double spread = 0.0;
  std::vector<double> centres;  // clusters x dim
  std::vector<double> weights;
  std::vector<double> rows;  // n x dim, row-major
};
VectorInputs MakeVectorInputs(int n, int dim, int clusters, double spread,
                              Rng& rng);

// One more embedding drawn from the same mixture (for insert epochs).
std::vector<double> DrawClusteredRow(const VectorInputs& inputs, Rng& rng);

// Per-user relevance over `n` ids, U[0,1].
std::vector<double> MakeRelevance(int n, Rng& rng);

}  // namespace servebench

#endif  // SERVEBENCH_GEN_H_
