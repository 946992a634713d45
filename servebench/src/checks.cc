#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

#include "metric/dense_metric.h"
#include "metric/vector_metric.h"

namespace servebench {

using diverse::engine::CorpusSnapshot;
using diverse::engine::CorpusUpdate;
using diverse::engine::MetricRepr;

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

namespace {

std::string Join(const std::vector<int>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out + "}";
}

// Sum of d(x, s) over s in `set`.
double DistanceToSet(const Mirror& mirror, int x, const std::vector<int>& set) {
  double sum = 0.0;
  for (int s : set) sum += mirror.Distance(x, s);
  return sum;
}

std::vector<int> LiveIds(const Mirror& mirror) {
  std::vector<int> ids;
  for (int id = 0; id < mirror.universe(); ++id) {
    if (mirror.alive(id)) ids.push_back(id);
  }
  return ids;
}

// Calls visit(set) for every subset of `ids` (at most 20 ids).
void ForEachSubset(const std::vector<int>& ids,
                   const std::function<void(const std::vector<int>&)>& visit) {
  const int m = static_cast<int>(ids.size());
  std::vector<int> set;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    set.clear();
    for (int i = 0; i < m; ++i) {
      if (mask & (1u << i)) set.push_back(ids[i]);
    }
    visit(set);
  }
}

bool Independent(const std::vector<int>& set, const Partition& partition) {
  std::vector<int> used(partition.caps.size(), 0);
  for (int e : set) {
    if (++used[partition.block_of[e]] > partition.caps[partition.block_of[e]]) {
      return false;
    }
  }
  return true;
}

}  // namespace

Mirror Mirror::Dense(const std::vector<double>& weights,
                     const std::vector<double>& matrix, double lambda) {
  Mirror mirror;
  const int n = static_cast<int>(weights.size());
  mirror.lambda_ = lambda;
  mirror.weights_ = weights;
  mirror.alive_.assign(n, 1);
  mirror.live_ = n;
  mirror.rows_.resize(n);
  for (int u = 0; u < n; ++u) {
    mirror.rows_[u].assign(matrix.begin() + static_cast<std::size_t>(u) * n,
                           matrix.begin() + static_cast<std::size_t>(u + 1) * n);
  }
  return mirror;
}

Mirror Mirror::Vector(const std::vector<double>& weights,
                      const std::vector<double>& rows, int dim,
                      double lambda) {
  Mirror mirror;
  const int n = static_cast<int>(weights.size());
  mirror.dim_ = dim;
  mirror.lambda_ = lambda;
  mirror.weights_ = weights;
  mirror.alive_.assign(n, 1);
  mirror.live_ = n;
  mirror.vectors_ = rows;
  return mirror;
}

double Mirror::Distance(int u, int v) const {
  if (dense()) return rows_[u][v];
  if (u == v) return 0.0;
  const double* a = vectors_.data() + static_cast<std::size_t>(u) * dim_;
  const double* b = vectors_.data() + static_cast<std::size_t>(v) * dim_;
  double sum = 0.0;
  for (int j = 0; j < dim_; ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

void Mirror::Apply(const std::vector<CorpusUpdate>& epoch) {
  for (const CorpusUpdate& update : epoch) {
    switch (update.kind) {
      case CorpusUpdate::Kind::kSetWeight:
        weights_[update.u] = update.value;
        break;
      case CorpusUpdate::Kind::kSetDistance:
        rows_[update.u][update.v] = update.value;
        rows_[update.v][update.u] = update.value;
        break;
      case CorpusUpdate::Kind::kInsert: {
        const int n = universe();
        for (int u = 0; u < n; ++u) rows_[u].push_back(update.distances[u]);
        std::vector<double> row(update.distances.begin(),
                                update.distances.begin() + n);
        row.push_back(0.0);
        rows_.push_back(std::move(row));
        weights_.push_back(update.value);
        alive_.push_back(1);
        ++live_;
        break;
      }
      case CorpusUpdate::Kind::kInsertVector:
        vectors_.insert(vectors_.end(), update.distances.begin(),
                        update.distances.end());
        weights_.push_back(update.value);
        alive_.push_back(1);
        ++live_;
        break;
      case CorpusUpdate::Kind::kErase:
        if (alive_[update.u]) --live_;
        alive_[update.u] = 0;
        break;
    }
  }
  ++version_;
}

double Mirror::Quality(int id, const std::vector<double>& relevance) const {
  if (relevance.empty()) return weights_[id];
  return id < static_cast<int>(relevance.size()) ? relevance[id] : 0.0;
}

double Mirror::Objective(const std::vector<int>& set,
                         const std::vector<double>& relevance,
                         double lambda) const {
  double quality = 0.0;
  double dispersion = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    quality += Quality(set[i], relevance);
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      dispersion += Distance(set[i], set[j]);
    }
  }
  return quality + lambda * dispersion;
}

std::string CheckAnswer(const Mirror& mirror, const Answer& answer, int p,
                        const std::vector<double>& relevance,
                        double lambda) {
  if (answer.version != mirror.version()) {
    return "served at version " + std::to_string(answer.version) +
           ", expected " + std::to_string(mirror.version());
  }
  std::vector<int> sorted = answer.elements;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const int id = sorted[i];
    if (id < 0 || id >= mirror.universe()) {
      return "id " + std::to_string(id) + " outside the id space";
    }
    if (!mirror.alive(id)) return "id " + std::to_string(id) + " is erased";
    if (i > 0 && sorted[i - 1] == id) {
      return "id " + std::to_string(id) + " appears twice";
    }
  }
  const int want = std::min(p, mirror.live());
  if (static_cast<int>(answer.elements.size()) != want) {
    return "size " + std::to_string(answer.elements.size()) + ", expected " +
           std::to_string(want);
  }
  const double phi = mirror.Objective(answer.elements, relevance, lambda);
  if (std::abs(phi - answer.objective) > kRelTol * std::max(std::abs(phi), 1.0)) {
    return "objective " + std::to_string(answer.objective) + " but phi" +
           Join(answer.elements) + " = " + std::to_string(phi);
  }
  return "";
}

std::string CheckPartitionBasis(const Mirror& mirror,
                                const std::vector<int>& set,
                                const Partition& partition) {
  const int blocks = static_cast<int>(partition.caps.size());
  std::vector<int> used(blocks, 0);
  std::vector<int> live_in(blocks, 0);
  for (int id = 0; id < mirror.universe(); ++id) {
    if (mirror.alive(id)) ++live_in[partition.block_of[id]];
  }
  for (int e : set) {
    const int b = partition.block_of[e];
    if (++used[b] > partition.caps[b]) {
      return "block " + std::to_string(b) + " over capacity in " + Join(set);
    }
  }
  int rank = 0;
  for (int b = 0; b < blocks; ++b) {
    rank += std::min(partition.caps[b], live_in[b]);
  }
  if (static_cast<int>(set.size()) != rank) {
    return "not a basis: size " + std::to_string(set.size()) + ", rank " +
           std::to_string(rank);
  }
  return "";
}

std::string CheckNoImprovingSwap(const Mirror& mirror,
                                 const std::vector<int>& set,
                                 const Partition& partition,
                                 const std::vector<double>& relevance,
                                 double lambda) {
  const double phi = mirror.Objective(set, relevance, lambda);
  const double tolerance = kRelTol * std::max(std::abs(phi), 1.0);
  const int blocks = static_cast<int>(partition.caps.size());
  std::vector<int> used(blocks, 0);
  std::vector<char> member(mirror.universe(), 0);
  for (int e : set) {
    ++used[partition.block_of[e]];
    member[e] = 1;
  }
  std::vector<double> out_to_rest(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    out_to_rest[i] = DistanceToSet(mirror, set[i], set);
  }
  for (int in = 0; in < mirror.universe(); ++in) {
    if (!mirror.alive(in) || member[in]) continue;
    const double in_to_set = DistanceToSet(mirror, in, set);
    const int in_block = partition.block_of[in];
    for (std::size_t i = 0; i < set.size(); ++i) {
      const int out = set[i];
      const bool feasible = partition.block_of[out] == in_block ||
                            used[in_block] < partition.caps[in_block];
      if (!feasible) continue;
      const double gain =
          mirror.Quality(in, relevance) - mirror.Quality(out, relevance) +
          lambda * ((in_to_set - mirror.Distance(in, out)) - out_to_rest[i]);
      if (gain > tolerance) {
        return "swap out " + std::to_string(out) + " in " +
               std::to_string(in) + " improves phi by " +
               std::to_string(gain);
      }
    }
  }
  return "";
}

double BruteForceCardinality(const Mirror& mirror, int p,
                             const std::vector<double>& relevance,
                             double lambda) {
  const std::vector<int> ids = LiveIds(mirror);
  const int size = std::min<int>(p, static_cast<int>(ids.size()));
  double best = 0.0;
  ForEachSubset(ids, [&](const std::vector<int>& set) {
    if (static_cast<int>(set.size()) != size) return;
    best = std::max(best, mirror.Objective(set, relevance, lambda));
  });
  return best;
}

double BruteForcePartition(const Mirror& mirror, const Partition& partition,
                           const std::vector<double>& relevance,
                           double lambda) {
  double best = 0.0;
  ForEachSubset(LiveIds(mirror), [&](const std::vector<int>& set) {
    if (!Independent(set, partition)) return;
    best = std::max(best, mirror.Objective(set, relevance, lambda));
  });
  return best;
}

std::string CheckRestored(const Mirror& mirror,
                          const CorpusSnapshot& restored) {
  if (restored.version() != mirror.version()) {
    return "restored version " + std::to_string(restored.version()) +
           ", mirror at " + std::to_string(mirror.version());
  }
  const int n = mirror.universe();
  if (restored.universe_size() != n) return "restored id space differs";
  if (restored.repr() != (mirror.dense() ? MetricRepr::kDense
                                         : MetricRepr::kVector)) {
    return "restored representation differs";
  }
  if (!SameBits(restored.lambda(), mirror.lambda())) {
    return "restored lambda differs";
  }
  for (int id = 0; id < n; ++id) {
    if (!SameBits(restored.weights().weight(id), mirror.weight(id))) {
      return "restored weight of " + std::to_string(id) + " differs";
    }
    if (restored.alive(id) != mirror.alive(id)) {
      return "restored liveness of " + std::to_string(id) + " differs";
    }
  }
  if (mirror.dense()) {
    const diverse::DenseMetric& metric = restored.metric();
    for (int u = 0; u < n; ++u) {
      const double* row = metric.TryRow(u);
      for (int v = 0; v < n; ++v) {
        if (!SameBits(row[v], mirror.Distance(u, v))) {
          return "restored d(" + std::to_string(u) + "," + std::to_string(v) +
                 ") differs";
        }
      }
    }
  } else {
    const diverse::VectorMetric& vectors = restored.vectors();
    if (vectors.dim() != mirror.dim()) return "restored dimension differs";
    for (int u = 0; u < n; ++u) {
      const std::span<const double> row = vectors.row(u);
      if (std::memcmp(row.data(), mirror.VectorRow(u),
                      sizeof(double) * mirror.dim()) != 0) {
        return "restored vector of " + std::to_string(u) + " differs";
      }
    }
  }
  return "";
}

std::string CheckEpochVisible(const Mirror& mirror,
                              const CorpusSnapshot& published,
                              const std::vector<CorpusUpdate>& epoch) {
  if (published.version() != mirror.version()) {
    return "published version " + std::to_string(published.version()) +
           ", expected " + std::to_string(mirror.version());
  }
  if (published.universe_size() != mirror.universe()) {
    return "published id space " + std::to_string(published.universe_size()) +
           ", expected " + std::to_string(mirror.universe());
  }
  int next_insert = mirror.universe();
  for (const CorpusUpdate& update : epoch) {
    if (update.kind == CorpusUpdate::Kind::kInsert ||
        update.kind == CorpusUpdate::Kind::kInsertVector) {
      --next_insert;
    }
  }
  for (const CorpusUpdate& update : epoch) {
    std::vector<int> touched;
    switch (update.kind) {
      case CorpusUpdate::Kind::kSetWeight:
      case CorpusUpdate::Kind::kErase:
        touched = {update.u};
        break;
      case CorpusUpdate::Kind::kSetDistance:
        if (!SameBits(published.metric().Distance(update.u, update.v),
                      mirror.Distance(update.u, update.v))) {
          return "d(" + std::to_string(update.u) + "," +
                 std::to_string(update.v) + ") not published";
        }
        break;
      case CorpusUpdate::Kind::kInsert:
      case CorpusUpdate::Kind::kInsertVector: {
        const int id = next_insert++;
        touched = {id};
        for (int v = 0; v < mirror.universe(); ++v) {
          const double served = published.backend().Distance(id, v);
          const double mine = mirror.Distance(id, v);
          const bool same = mirror.dense()
                                ? SameBits(served, mine)
                                : std::abs(served - mine) <=
                                      kRelTol * std::max(mine, 1.0);
          if (!same) {
            return "inserted id " + std::to_string(id) + " distance to " +
                   std::to_string(v) + " differs";
          }
        }
        break;
      }
    }
    for (int id : touched) {
      if (!SameBits(published.weights().weight(id), mirror.weight(id)) ||
          published.alive(id) != mirror.alive(id)) {
        return "update of id " + std::to_string(id) + " not published";
      }
    }
  }
  return "";
}

std::string CheckRoundTrip(const diverse::rpc::ShardQueryRequest& original,
                           const diverse::rpc::ShardQueryRequest& decoded) {
  if (original.snapshot_version != decoded.snapshot_version ||
      original.shard_salt != decoded.shard_salt ||
      original.trace_id != decoded.trace_id ||
      original.num_shards != decoded.num_shards ||
      original.shard_index != decoded.shard_index ||
      original.p != decoded.p || original.per_shard != decoded.per_shard ||
      !SameBits(original.lambda, decoded.lambda) ||
      original.relevance.size() != decoded.relevance.size()) {
    return "shard request header changed in a codec round trip";
  }
  for (std::size_t i = 0; i < original.relevance.size(); ++i) {
    if (!SameBits(original.relevance[i], decoded.relevance[i])) {
      return "shard request relevance[" + std::to_string(i) +
             "] changed in a codec round trip";
    }
  }
  return "";
}

std::string CheckRoundTrip(const diverse::rpc::ShardQueryResponse& original,
                           const diverse::rpc::ShardQueryResponse& decoded) {
  if (original.status != decoded.status ||
      original.node_version != decoded.node_version ||
      original.shard_index != decoded.shard_index ||
      original.elements != decoded.elements ||
      !SameBits(original.objective, decoded.objective) ||
      original.steps != decoded.steps ||
      original.spans.size() != decoded.spans.size()) {
    return "shard response changed in a codec round trip";
  }
  return "";
}

}  // namespace servebench
