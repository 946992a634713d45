#include "gen.h"

#include <cmath>
#include <numbers>

namespace servebench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  const double unit = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

int Rng::Below(int bound) {
  return static_cast<int>(Next() % static_cast<std::uint64_t>(bound));
}

double Rng::Gaussian() {
  double u1 = Uniform(0.0, 1.0);
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = Uniform(0.0, 1.0);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t key) {
  Rng rng(seed ^ (key * 0xd1b54a32d192ed03ULL));
  return rng.Next();
}

DenseInputs MakeDenseInputs(int n, Rng& rng) {
  DenseInputs inputs;
  inputs.n = n;
  inputs.weights.resize(n);
  for (double& w : inputs.weights) w = rng.Uniform(0.0, 1.0);
  inputs.matrix.assign(static_cast<std::size_t>(n) * n, 0.0);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double d = rng.Uniform(1.0, 2.0);
      inputs.matrix[static_cast<std::size_t>(u) * n + v] = d;
      inputs.matrix[static_cast<std::size_t>(v) * n + u] = d;
    }
  }
  return inputs;
}

VectorInputs MakeVectorInputs(int n, int dim, int clusters, double spread,
                              Rng& rng) {
  VectorInputs inputs;
  inputs.n = n;
  inputs.dim = dim;
  inputs.spread = spread;
  inputs.centres.resize(static_cast<std::size_t>(clusters) * dim);
  for (double& c : inputs.centres) c = rng.Gaussian();
  inputs.weights.resize(n);
  for (double& w : inputs.weights) w = rng.Uniform(0.0, 1.0);
  inputs.rows.reserve(static_cast<std::size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> row = DrawClusteredRow(inputs, rng);
    inputs.rows.insert(inputs.rows.end(), row.begin(), row.end());
  }
  return inputs;
}

std::vector<double> DrawClusteredRow(const VectorInputs& inputs, Rng& rng) {
  const int clusters = static_cast<int>(inputs.centres.size()) / inputs.dim;
  const int c = rng.Below(clusters);
  std::vector<double> row(inputs.dim);
  for (int j = 0; j < inputs.dim; ++j) {
    row[j] = inputs.centres[static_cast<std::size_t>(c) * inputs.dim + j] +
             inputs.spread * rng.Gaussian();
  }
  return row;
}

std::vector<double> MakeRelevance(int n, Rng& rng) {
  std::vector<double> relevance(n);
  for (double& r : relevance) r = rng.Uniform(0.0, 1.0);
  return relevance;
}

}  // namespace servebench
