#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "algorithms/distributed.h"
#include "algorithms/local_search.h"
#include "checks.h"
#include "engine/corpus.h"
#include "engine/engine.h"
#include "engine/execution_plan.h"
#include "estimate.h"
#include "gen.h"
#include "matroid/partition_matroid.h"
#include "metric/dense_metric.h"
#include "metric/pruning_index.h"
#include "metric/vector_metric.h"
#include "rpc/coordinator.h"
#include "rpc/shard_node.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "snapshot/snapshot_codec.h"
#include "spans.h"

namespace servebench {
namespace {

namespace engine = diverse::engine;
namespace rpc = diverse::rpc;
namespace snapshot = diverse::snapshot;
using engine::CorpusUpdate;
using engine::DiversificationEngine;
using engine::Query;
using engine::QueryResult;
using engine::SnapshotPtr;

const Clock::time_point kProcessStart = Clock::now();

// A p99 needs ten samples beyond it; timed passes at least, so each
// operation has replays spread over the run.
constexpr int kMinQuerySamples = 1000;
constexpr int kMinTimedPasses = 8;
// No pass starts this long after the process began, whatever --seconds
// says, so every run exits well within 180 s.
constexpr double kHardStopSeconds = 120.0;

// Thread budget for nproc = 4: the client thread, one engine worker and
// two threads per batched evaluator scan. Scans below the evaluator's
// 2048-candidate grain run inline on their caller.
constexpr int kEngineWorkers = 1;
constexpr int kScanThreads = 2;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Every per-layer metric, in BENCHMARK.json order. A layer that does no
// work on a workload reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"engine.runsync_ms", "ms"},
    {"engine.queue_wait_ms", "ms"},
    {"engine.execute_ms", "ms"},
    {"engine.problem_view_ms", "ms"},
    {"engine.snapshot_us", "us"},
    {"engine.apply_ms", "ms"},
    {"engine.apply_bytes", "bytes"},
    {"engine.pruning_build_ms", "ms"},
    {"algorithms.greedy_ms", "ms"},
    {"algorithms.greedy_unpruned_ms", "ms"},
    {"algorithms.local_search_ms", "ms"},
    {"algorithms.local_search_init_ms", "ms"},
    {"algorithms.local_search_swaps", "count"},
    {"algorithms.sharded_greedy_ms", "ms"},
    {"metric.row_us", "us"},
    {"metric.row_bytes", "bytes"},
    {"metric.candidates_pruned", "count/query"},
    {"metric.scans_certified", "count/query"},
    {"metric.scans_fallback", "count/query"},
    {"metric.index_rebuilds", "count/pass"},
    {"snapshot.encode_mb_s", "MB/s"},
    {"snapshot.decode_mb_s", "MB/s"},
    {"snapshot.crc32_mb_s", "MB/s"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.image_bytes", "bytes"},
    {"rpc.call_us", "us"},
    {"rpc.calls_per_query", "count"},
    {"rpc.bytes_per_query", "bytes"},
    {"rpc.encode_us", "us"},
    {"rpc.decode_us", "us"},
    {"rpc.remote_shards", "count/query"},
    {"rpc.local_fallbacks", "count/query"},
    {"replication.publish_ms", "ms"},
    {"replication.compact_ms", "ms"},
    {"replication.catchup_batches", "count/pass"},
    {"replication.snapshots_sent", "count/pass"},
};

// Per-layer samples (median reported) and fixed values.
class Layers {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Set(const std::string& name, double value) { fixed_[name] = value; }
  double Value(const std::string& name) const {
    if (auto it = fixed_.find(name); it != fixed_.end()) return it->second;
    if (auto it = samples_.find(name); it != samples_.end()) {
      return Quantile(it->second, 0.5);
    }
    return 0.0;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> fixed_;
};

struct PruneCounts {
  long long pruned = 0;
  long long certified = 0;
  long long fallback = 0;
  long long rebuilds = 0;

  static PruneCounts Now() {
    diverse::PruningCounters& c = diverse::GlobalPruningCounters();
    return {c.candidates_pruned.value(), c.certified_scans.value(),
            c.fallback_scans.value(), c.rebuilds.value()};
  }
  void AddDelta(const PruneCounts& before, const PruneCounts& after) {
    pruned += after.pruned - before.pruned;
    certified += after.certified - before.certified;
    fallback += after.fallback - before.fallback;
    rebuilds += after.rebuilds - before.rebuilds;
  }
};

// State shared by one run: timings, layer samples, spans, verdict.
struct Harness {
  Harness(const RunConfig& c, RunResult* r) : config(c), result(r) {}

  const RunConfig& config;
  RunResult* result;
  Family queries;
  Family epochs;
  Family checkpoints;
  // Per query, in block order: the latency the engine reports (and
  // records in its histogram) and the benchmark's own timing of the call.
  Family engine_latency;
  Family call_latency;
  // Consecutive slices of a pass's wall clock, one per operation: the
  // operation's own time where the client runs one at a time.
  Family segments;
  int queries_per_pass = 0;
  int pass = 0;  // 0 = the verification pass
  double setup_seconds = 0.0;
  Layers layers;
  SpanRecorder spans;
  // Counter deltas over the program's own operations (traced runs).
  PruneCounts prune;
  long long measured_queries = 0;
  int measured_passes = 0;

  bool verifying() const { return pass == 0; }
  bool tracing() const { return config.trace; }
  void Fail(const std::string& what) {
    result->correct = false;
    if (result->errors.size() < 20) result->errors.push_back(what);
  }
  void Expect(const std::string& error, const std::string& what) {
    if (!error.empty()) Fail(what + ": " + error);
  }
  void BeginPass() {
    queries.BeginPass();
    epochs.BeginPass();
    checkpoints.BeginPass();
    segments.BeginPass();
    engine_latency.BeginPass();
    call_latency.BeginPass();
  }
};

// Times f() as a child span of `root` and as a layer sample in units of
// 1/scale seconds.
template <typename F>
void Probe(Harness& h, std::uint64_t root, const char* span,
           const char* metric, double scale, F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  const Clock::time_point t1 = Clock::now();
  h.spans.Child(root, span, t0, t1);
  h.layers.Add(metric, Seconds(t0, t1) * scale);
}

// Builds the stack (first call timed as setup_s), then runs the block
// once to verify and again until --seconds are used up.
template <typename Setup, typename Pass>
void RunPasses(Harness& h, int queries_per_pass, Setup&& setup,
               Pass&& run_pass) {
  h.queries_per_pass = queries_per_pass;
  const int min_timed = std::max(
      kMinTimedPasses,
      (kMinQuerySamples + queries_per_pass - 1) / queries_per_pass);
  const Clock::time_point t0 = Clock::now();
  setup();
  h.setup_seconds = Seconds(t0, Clock::now());
  const Clock::time_point window_start = Clock::now();
  for (h.pass = 0;; ++h.pass) {
    if (h.pass > 0) setup();
    h.BeginPass();
    run_pass();
    std::fprintf(stderr,
                 "servebench: pass %d ends at %.1f s, wall %.4f s, queries "
                 "%.4f s (engine's own timing %.4f s)\n",
                 h.pass, Seconds(window_start, Clock::now()),
                 h.segments.PassTotal(h.pass), h.call_latency.PassTotal(h.pass),
                 h.engine_latency.PassTotal(h.pass));
    if (!h.result->correct) return;
    const int timed = h.pass;  // passes 1..h.pass
    if (Seconds(window_start, Clock::now()) >= h.config.seconds &&
        timed >= min_timed) {
      return;
    }
    if (Seconds(kProcessStart, Clock::now()) >= kHardStopSeconds) {
      if (timed < min_timed) h.Fail("time ran out before enough passes");
      return;
    }
  }
}

// End-to-end estimates from the timed passes (pass 0 verifies and warms
// up), all from each operation's fastest replays. Latencies take the
// single fastest replay, except that the query p99 keeps as many fastest
// replays per query as it takes to pool 1000 samples. Throughput is one
// block's queries over the sum of its segments' fastest replays.
void ReportEndToEnd(Harness& h, std::vector<Metric>* out) {
  const std::vector<double> queries = h.queries.FastestReplays(1, 1);
  const int keep = (kMinQuerySamples + h.queries_per_pass - 1) /
                   h.queries_per_pass;
  const std::vector<double> tail = h.queries.FastestReplays(1, keep);
  if (static_cast<int>(tail.size()) < kMinQuerySamples) {
    h.Fail("too few query samples for a p99");
  }
  const std::vector<double> segments = h.segments.FastestReplays(1, 1);
  const double wall = std::accumulate(segments.begin(), segments.end(), 0.0);
  *out = {
      {"setup_s", "s", h.setup_seconds},
      {"queries_per_s", "1/s", h.queries_per_pass / wall},
      {"query_p50_ms", "ms", Quantile(queries, 0.5) * 1e3},
      {"query_p99_ms", "ms", Quantile(tail, 0.99) * 1e3},
      {"epoch_p50_ms", "ms",
       Quantile(h.epochs.FastestReplays(1, 1), 0.5) * 1e3},
      {"checkpoint_ms", "ms",
       Quantile(h.checkpoints.FastestReplays(1, 1), 0.5) * 1e3},
  };
}

// ---- Inputs -----------------------------------------------------------------

enum class OpKind { kQuery, kEpoch, kCheckpoint, kCompaction };
struct Op {
  OpKind kind;
  int index;  // into the stream's queries / epochs / checkpoint records
};

// Liveness as the generator tracks it while laying out the stream.
struct Sim {
  explicit Sim(int n) : universe(n) {
    for (int id = 0; id < n; ++id) live.push_back(id);
  }
  int RandomLive(Rng& rng) const {
    return live[rng.Below(static_cast<int>(live.size()))];
  }
  void Erase(int id) {
    auto it = std::find(live.begin(), live.end(), id);
    *it = live.back();
    live.pop_back();
  }
  int Insert() {
    live.push_back(universe);
    return universe++;
  }
  int universe;
  std::vector<int> live;
};

std::vector<CorpusUpdate> DenseEpoch(Rng& rng, Sim& sim, int weights,
                                     int distances, int inserts, int erases) {
  std::vector<CorpusUpdate> epoch;
  for (int i = 0; i < weights; ++i) {
    epoch.push_back(
        CorpusUpdate::SetWeight(sim.RandomLive(rng), rng.Uniform(0.0, 1.0)));
  }
  for (int i = 0; i < distances; ++i) {
    const int u = rng.Below(sim.universe);
    int v = rng.Below(sim.universe - 1);
    if (v >= u) ++v;
    epoch.push_back(CorpusUpdate::SetDistance(u, v, rng.Uniform(1.0, 2.0)));
  }
  for (int i = 0; i < inserts; ++i) {
    std::vector<double> distances_to(sim.universe);
    for (double& d : distances_to) d = rng.Uniform(1.0, 2.0);
    epoch.push_back(
        CorpusUpdate::Insert(rng.Uniform(0.0, 1.0), std::move(distances_to)));
    sim.Insert();
  }
  for (int i = 0; i < erases; ++i) {
    const int id = sim.RandomLive(rng);
    sim.Erase(id);
    epoch.push_back(CorpusUpdate::Erase(id));
  }
  return epoch;
}

std::vector<CorpusUpdate> VectorEpoch(Rng& rng, Sim& sim,
                                      const VectorInputs& inputs,
                                      int weights, int inserts, int erases) {
  std::vector<CorpusUpdate> epoch;
  for (int i = 0; i < weights; ++i) {
    epoch.push_back(
        CorpusUpdate::SetWeight(sim.RandomLive(rng), rng.Uniform(0.0, 1.0)));
  }
  for (int i = 0; i < inserts; ++i) {
    epoch.push_back(CorpusUpdate::InsertVector(rng.Uniform(0.0, 1.0),
                                               DrawClusteredRow(inputs, rng)));
    sim.Insert();
  }
  for (int i = 0; i < erases; ++i) {
    const int id = sim.RandomLive(rng);
    sim.Erase(id);
    epoch.push_back(CorpusUpdate::Erase(id));
  }
  return epoch;
}

DiversificationEngine::Options EngineOptions() {
  DiversificationEngine::Options options;
  options.num_workers = kEngineWorkers;
  options.eval.num_threads = kScanThreads;
  return options;
}

engine::PlanDefaults Defaults(const DiversificationEngine::Options& options) {
  engine::PlanDefaults defaults;
  defaults.num_shards = options.default_num_shards;
  defaults.remote = options.remote;
  defaults.eval = options.eval;
  return defaults;
}

// Bytes the writer copies to publish `epoch` on top of `before`: the
// cloned metric payload (dense matrix on distance/insert epochs, vector
// rows on insert epochs) plus the per-snapshot weight, liveness and
// candidate arrays. Computed from n, d and the epoch kind.
double ApplyBytes(const engine::CorpusSnapshot& before,
                  const std::vector<CorpusUpdate>& epoch) {
  const double n = before.universe_size();
  double inserts = 0;
  bool distances = false;
  for (const CorpusUpdate& update : epoch) {
    if (update.kind == CorpusUpdate::Kind::kInsert ||
        update.kind == CorpusUpdate::Kind::kInsertVector) {
      ++inserts;
    }
    if (update.kind == CorpusUpdate::Kind::kSetDistance) distances = true;
  }
  const double after = n + inserts;
  double payload = 0.0;
  if (before.repr() == engine::MetricRepr::kDense) {
    if (inserts > 0 || distances) payload = after * after * 8.0;
  } else if (inserts > 0) {
    payload = after * before.dim() * 8.0;
  }
  return payload + after * (8.0 + 1.0) +
         static_cast<double>(before.candidates().size()) * 4.0;
}

double RowBytes(const engine::CorpusSnapshot& snap) {
  const double live = static_cast<double>(snap.candidates().size());
  return snap.repr() == engine::MetricRepr::kDense ? live * 8.0
                                                   : live * snap.dim() * 8.0;
}

Answer ToAnswer(const QueryResult& result) {
  return {result.elements, result.objective, result.corpus_version};
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.elements == b.elements && SameBits(a.objective, b.objective) &&
         a.version == b.version;
}

// Verification pass: run `check` and keep the answer. Later passes: the
// answer must repeat bit for bit.
template <typename Check>
void Settle(Harness& h, const Answer& got, Answer* record, Check&& check) {
  if (h.verifying()) {
    check();
    *record = got;
  } else if (!SameAnswer(got, *record)) {
    h.Fail("answer differs from the verification pass at version " +
           std::to_string(got.version));
  }
}

// Restriction to live ids, as the engine applies it to local-search
// constraints on corpora with erased ids.
class LiveOnly : public diverse::Matroid {
 public:
  LiveOnly(const diverse::Matroid* inner, const engine::CorpusSnapshot* snap)
      : inner_(inner), snap_(snap) {}
  int ground_size() const override { return inner_->ground_size(); }
  bool IsIndependent(std::span<const int> set) const override {
    for (int e : set) {
      if (!snap_->alive(e)) return false;
    }
    return inner_->IsIndependent(set);
  }
  int rank() const override {
    return std::min(inner_->rank(),
                    static_cast<int>(snap_->candidates().size()));
  }
  bool CanAdd(std::span<const int> set, int e) const override {
    return snap_->alive(e) && inner_->CanAdd(set, e);
  }
  bool CanExchange(std::span<const int> set, int out, int in) const override {
    return snap_->alive(in) && inner_->CanExchange(set, out, in);
  }

 private:
  const diverse::Matroid* inner_;
  const engine::CorpusSnapshot* snap_;
};

// Traced probes of one answered query on the snapshot that served it:
// the per-query problem view, the whole plan, the algorithm kernel (with
// and without the pruning index), and one metric row.
void ProbeQuery(Harness& h, std::uint64_t root, const SnapshotPtr& snap,
                const Query& query, const QueryResult& served,
                const engine::PlanDefaults& defaults) {
  const engine::CorpusSnapshot& s = *snap;
  std::optional<engine::ProblemView> view;
  Probe(h, root, "engine.problem_view", "engine.problem_view_ms", 1e3, [&] {
    view.emplace(engine::MakeProblemView(s, query.relevance, query.lambda));
  });
  QueryResult again;
  Probe(h, root, "engine.execute", "engine.execute_ms", 1e3,
        [&] { again = engine::ExecuteQuery(s, query, defaults); });
  if (again.elements != served.elements) {
    h.Fail("ExecuteQuery replay differs from the served answer");
  }
  const int p =
      std::min<int>(query.p, static_cast<int>(s.candidates().size()));
  diverse::CandidateScanConfig scan;
  scan.eval = defaults.eval;
  scan.pruning = engine::ResolvePruning(s, query.pruning);
  if (query.plan == engine::PlanKind::kRemoteSharded) {
    diverse::AlgorithmResult sharded;
    Probe(h, root, "algorithms.sharded_greedy", "algorithms.sharded_greedy_ms",
          1e3, [&] {
            sharded = diverse::ShardedGreedy(view->problem, s.candidates(), p,
                                             query.num_shards,
                                             query.per_shard,
                                             query.shard_salt, scan);
          });
    if (sharded.elements != served.elements) {
      h.Fail("in-process ShardedGreedy differs from the remote answer");
    }
  } else if (query.algorithm == engine::QueryAlgorithm::kGreedy) {
    diverse::AlgorithmResult greedy;
    Probe(h, root, "algorithms.greedy", "algorithms.greedy_ms", 1e3, [&] {
      greedy = diverse::GreedyVertexOnCandidates(view->problem,
                                                 s.candidates(), p, scan);
    });
    diverse::CandidateScanConfig unpruned = scan;
    unpruned.pruning = nullptr;
    diverse::AlgorithmResult plain;
    Probe(h, root, "algorithms.greedy_unpruned",
          "algorithms.greedy_unpruned_ms", 1e3, [&] {
            plain = diverse::GreedyVertexOnCandidates(view->problem,
                                                      s.candidates(), p,
                                                      unpruned);
          });
    if (greedy.elements != served.elements ||
        plain.elements != served.elements) {
      h.Fail("greedy kernel replay differs from the served answer");
    }
  } else if (query.algorithm == engine::QueryAlgorithm::kLocalSearch) {
    std::optional<LiveOnly> live;
    const diverse::Matroid* constraint = query.matroid;
    if (s.has_retired()) {
      live.emplace(constraint, &s);
      constraint = &*live;
    }
    diverse::LocalSearchOptions options;
    options.eval = defaults.eval;
    options.pruning = scan.pruning;
    diverse::AlgorithmResult full;
    Probe(h, root, "algorithms.local_search", "algorithms.local_search_ms",
          1e3,
          [&] { full = diverse::LocalSearch(view->problem, *constraint,
                                            options); });
    h.layers.Add("algorithms.local_search_swaps",
                 static_cast<double>(full.steps));
    options.max_swaps = 0;
    Probe(h, root, "algorithms.local_search_init",
          "algorithms.local_search_init_ms", 1e3,
          [&] { diverse::LocalSearch(view->problem, *constraint, options); });
    if (full.elements != served.elements) {
      h.Fail("local-search replay differs from the served answer");
    }
  }
  if (!served.elements.empty()) {
    std::vector<double> row(s.candidates().size());
    Probe(h, root, "metric.row", "metric.row_us", 1e6, [&] {
      s.backend().DistancesTo(served.elements[0], s.candidates(), row);
    });
    h.layers.Add("metric.row_bytes", RowBytes(s));
  }
}

// ---- Operations shared by the workloads ---------------------------------------

struct CheckpointRecord {
  std::uint64_t version = 0;
  std::vector<int> probe;
};

// Encodes the live version's image, decodes it and brings a fresh Corpus up
// from it. Returns the operation's time.
double CheckpointOp(Harness& h, const SnapshotPtr& live, const Mirror* mirror,
                    const Query& probe, CheckpointRecord* record) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::uint8_t> image = snapshot::EncodeSnapshot(*live);
  const Clock::time_point t1 = Clock::now();
  engine::CorpusState state;
  const bool decoded = snapshot::DecodeSnapshot(image, &state);
  const Clock::time_point t2 = Clock::now();
  std::unique_ptr<engine::Corpus> restored;
  if (decoded) restored = std::make_unique<engine::Corpus>(std::move(state));
  const Clock::time_point t3 = Clock::now();
  const double seconds = Seconds(t0, t3);
  h.checkpoints.Add(seconds);
  if (!decoded) {
    h.Fail("checkpoint image did not decode");
    return seconds;
  }
  const SnapshotPtr back = restored->snapshot();
  const std::vector<int> probe_elements =
      engine::ExecuteQuery(*back, probe).elements;
  if (h.verifying()) {
    h.Expect(CheckRestored(*mirror, *back), "restored checkpoint");
    if (probe_elements != engine::ExecuteQuery(*live, probe).elements) {
      h.Fail("restored checkpoint answers the probe differently");
    }
    *record = {back->version(), probe_elements};
  } else if (back->version() != record->version ||
             probe_elements != record->probe) {
    h.Fail("restored checkpoint differs from the verification pass");
  }
  if (h.tracing()) {
    const std::uint64_t root = h.spans.Root("checkpoint", t0, t3);
    h.spans.Child(root, "snapshot.encode", t0, t1);
    h.spans.Child(root, "snapshot.decode", t1, t2);
    h.spans.Child(root, "snapshot.restore", t2, t3);
    const double mb = static_cast<double>(image.size()) / 1e6;
    h.layers.Add("snapshot.encode_mb_s", mb / Seconds(t0, t1));
    h.layers.Add("snapshot.decode_mb_s", mb / Seconds(t1, t2));
    h.layers.Add("snapshot.restore_ms", Seconds(t2, t3) * 1e3);
    h.layers.Set("snapshot.image_bytes", static_cast<double>(image.size()));
    const Clock::time_point c0 = Clock::now();
    snapshot::Crc32(image);
    const Clock::time_point c1 = Clock::now();
    h.spans.Child(root, "snapshot.crc32", c0, c1);
    h.spans.Extend(root, c1);
    h.layers.Add("snapshot.crc32_mb_s", mb / Seconds(c0, c1));
  }
  return seconds;
}

// Applies one update epoch on the engine (and, when a coordinator is
// given, publishes it to the replicas). Returns the operation's time.
double EpochOp(Harness& h, DiversificationEngine& eng,
               rpc::Coordinator* coordinator,
               const std::vector<rpc::ShardNode*>& replicas,
               const std::vector<CorpusUpdate>& epoch,
               std::uint64_t* version, Mirror* mirror) {
  const SnapshotPtr before = h.tracing() ? eng.corpus().snapshot() : nullptr;
  const PruneCounts prune_before = PruneCounts::Now();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t v = eng.ApplyUpdates(epoch);
  bool visible = eng.corpus().version() == v;
  const Clock::time_point t1 = Clock::now();
  if (coordinator != nullptr) {
    coordinator->PublishEpoch(v, epoch);
    for (const rpc::ShardNode* node : replicas) {
      visible = visible && node->version() == v;
    }
  }
  const Clock::time_point t2 = Clock::now();
  const double seconds = Seconds(t0, t2);
  h.epochs.Add(seconds);
  if (h.tracing()) h.prune.AddDelta(prune_before, PruneCounts::Now());
  if (v != *version + 1) {
    h.Fail("epoch published version " + std::to_string(v) + " after " +
           std::to_string(*version));
  }
  if (!visible) h.Fail("epoch version " + std::to_string(v) + " not visible");
  *version = v;
  if (mirror != nullptr) {
    mirror->Apply(epoch);
    h.Expect(CheckEpochVisible(*mirror, *eng.corpus().snapshot(), epoch),
             "epoch");
  }
  if (h.tracing()) {
    const std::uint64_t root = h.spans.Root("epoch", t0, t2);
    h.spans.Child(root, "engine.apply", t0, t1);
    h.layers.Add("engine.apply_ms", Seconds(t0, t1) * 1e3);
    h.layers.Add("engine.apply_bytes", ApplyBytes(*before, epoch));
    if (coordinator != nullptr) {
      h.spans.Child(root, "replication.publish", t1, t2);
      h.layers.Add("replication.publish_ms", Seconds(t1, t2) * 1e3);
    }
  }
  return seconds;
}

// One query's latency as the engine reports it beside the benchmark's own
// timing of the same call. The engine's interval lies inside the call's.
void RecordLatency(Harness& h, double engine_seconds, double call_seconds) {
  h.engine_latency.Add(engine_seconds);
  h.call_latency.Add(call_seconds);
  if (engine_seconds > call_seconds) {
    h.Fail("engine latency " + std::to_string(engine_seconds) +
           " s exceeds the benchmark's timing of the call, " +
           std::to_string(call_seconds) + " s");
  }
}

// The engine's histogram counts every query the benchmark sent in this
// pass and sums exactly the latencies the engine reported for them.
void CheckLatencyHistogram(Harness& h, const DiversificationEngine& eng,
                           long long queries) {
  const diverse::obs::Histogram& hist = eng.latency_histogram();
  if (hist.count() != queries) {
    h.Fail("latency histogram counted " + std::to_string(hist.count()) +
           " queries, the benchmark sent " + std::to_string(queries));
  }
  const double reported = h.engine_latency.PassTotal(h.pass);
  if (std::abs(hist.sum() - reported) > 1e-9 * reported) {
    h.Fail("latency histogram sum " + std::to_string(hist.sum()) +
           " s vs the engine's reported latencies, " +
           std::to_string(reported) + " s");
  }
}

// Over the timed passes, the engine's latencies sum to within 5% of the
// benchmark's own timing of the same calls, both taken as each query's
// fastest replay: a host stall that lands between the benchmark's clock
// and the engine's in one replay does not count against the engine.
void CheckLatencyAgreement(Harness& h) {
  if (h.call_latency.passes() < 2) return;
  const std::vector<double> engine = h.engine_latency.FastestReplays(1, 1);
  const std::vector<double> calls = h.call_latency.FastestReplays(1, 1);
  const double engine_sum = std::accumulate(engine.begin(), engine.end(), 0.0);
  const double call_sum = std::accumulate(calls.begin(), calls.end(), 0.0);
  std::fprintf(stderr,
               "servebench: engine latency %.6f s vs the benchmark's %.6f s "
               "(fastest replays)\n",
               engine_sum, call_sum);
  if (call_sum - engine_sum > 0.05 * call_sum) {
    h.Fail("engine latencies sum to " + std::to_string(engine_sum) +
           " s vs the benchmark's " + std::to_string(call_sum) + " s");
  }
}

// Theorems 1-2 on small seeded instances, outside the timed passes: Greedy
// B and local search under a partition matroid each reach OPT/2 against
// the benchmark's brute force, and their answers pass the usual checks.
void CheckTheorems(Harness& h, bool vectors) {
  constexpr int kN = 11;
  constexpr int kP = 4;
  constexpr double kLambda = 0.3;
  Rng rng(Mix(h.config.seed, 0x7e0));
  for (int instance = 0; instance < 3; ++instance) {
    DiversificationEngine::Options options;
    options.num_workers = 1;
    options.eval.num_threads = 1;
    std::unique_ptr<DiversificationEngine> eng;
    std::optional<Mirror> mirror;
    if (vectors) {
      const VectorInputs in = MakeVectorInputs(kN, 4, 3, 0.5, rng);
      mirror.emplace(Mirror::Vector(in.weights, in.rows, in.dim, kLambda));
      eng = std::make_unique<DiversificationEngine>(
          in.weights, diverse::VectorMetric::FromRows(in.dim, in.rows),
          kLambda, options);
    } else {
      const DenseInputs in = MakeDenseInputs(kN, rng);
      mirror.emplace(Mirror::Dense(in.weights, in.matrix, kLambda));
      eng = std::make_unique<DiversificationEngine>(
          in.weights, diverse::DenseMetric::FromMatrix(kN, in.matrix),
          kLambda, options);
    }
    Partition partition;
    partition.caps = {2, 1, 1};
    for (int id = 0; id < kN; ++id) partition.block_of.push_back(id % 3);
    const diverse::PartitionMatroid matroid(partition.block_of,
                                            partition.caps);
    Query query;
    query.p = kP;
    query.relevance = MakeRelevance(kN, rng);
    const Answer greedy = ToAnswer(eng->RunSync(query));
    h.Expect(CheckAnswer(*mirror, greedy, kP, query.relevance, kLambda),
             "small-instance greedy");
    const double opt =
        BruteForceCardinality(*mirror, kP, query.relevance, kLambda);
    if (greedy.objective < opt / 2.0) h.Fail("greedy below OPT/2");

    query.algorithm = engine::QueryAlgorithm::kLocalSearch;
    query.matroid = &matroid;
    const Answer local = ToAnswer(eng->RunSync(query));
    h.Expect(CheckAnswer(*mirror, local, kP, query.relevance, kLambda),
             "small-instance local search");
    h.Expect(CheckPartitionBasis(*mirror, local.elements, partition),
             "small-instance local search");
    h.Expect(CheckNoImprovingSwap(*mirror, local.elements, partition,
                                  query.relevance, kLambda),
             "small-instance local search");
    const double opt_matroid =
        BruteForcePartition(*mirror, partition, query.relevance, kLambda);
    if (local.objective < opt_matroid / 2.0) {
      h.Fail("local search below OPT/2");
    }
  }
}

void MeasurePruningBuild(Harness& h, engine::Corpus& corpus) {
  const Clock::time_point t0 = Clock::now();
  corpus.EnablePruning(diverse::PruningIndex::Options{});
  h.layers.Set("engine.pruning_build_ms", Seconds(t0, Clock::now()) * 1e3);
}

// ---- dense-churn ------------------------------------------------------------

void DenseChurn(Harness& h) {
  constexpr int kN = 2000;
  constexpr int kP = 10;
  constexpr double kLambda = 0.2;
  constexpr int kQueries = 1000;
  constexpr int kEpochEvery = 25;
  constexpr int kCheckpointEvery = 500;

  Rng rng(h.config.seed);
  const DenseInputs inputs = MakeDenseInputs(kN, rng);
  Sim sim(kN);
  std::vector<Op> ops;
  std::vector<Query> queries;
  std::vector<std::vector<CorpusUpdate>> epochs;
  int checkpoints = 0;
  for (int i = 0; i < kQueries; ++i) {
    Query query;
    query.p = kP;
    query.relevance = MakeRelevance(sim.universe, rng);
    ops.push_back({OpKind::kQuery, static_cast<int>(queries.size())});
    queries.push_back(std::move(query));
    if ((i + 1) % kEpochEvery == 0) {
      ops.push_back({OpKind::kEpoch, static_cast<int>(epochs.size())});
      epochs.push_back(DenseEpoch(rng, sim, 4, 4, 1, 1));
    }
    if ((i + 1) % kCheckpointEvery == 0) {
      ops.push_back({OpKind::kCheckpoint, checkpoints++});
    }
  }
  Query probe;
  probe.p = kP;

  const DiversificationEngine::Options options = EngineOptions();
  const engine::PlanDefaults defaults = Defaults(options);
  std::unique_ptr<DiversificationEngine> eng;
  std::vector<Answer> answers(queries.size());
  std::vector<CheckpointRecord> restored(checkpoints);

  auto setup = [&] {
    eng.reset();
    eng = std::make_unique<DiversificationEngine>(
        inputs.weights, diverse::DenseMetric::FromMatrix(kN, inputs.matrix),
        kLambda, options);
  };
  auto run_pass = [&] {
    std::optional<Mirror> mirror;
    if (h.verifying()) {
      mirror.emplace(Mirror::Dense(inputs.weights, inputs.matrix, kLambda));
    }
    Mirror* m = mirror ? &*mirror : nullptr;
    std::uint64_t version = 0;
    for (const Op& op : ops) {
      ++h.result->attempted;
      switch (op.kind) {
        case OpKind::kQuery: {
          const Query& query = queries[op.index];
          const PruneCounts prune_before = PruneCounts::Now();
          const Clock::time_point t0 = Clock::now();
          const QueryResult result = eng->RunSync(query);
          const Clock::time_point t1 = Clock::now();
          const double seconds = Seconds(t0, t1);
          h.queries.Add(seconds);
          h.segments.Add(seconds);
          RecordLatency(h, result.latency_seconds, seconds);
          const Answer got = ToAnswer(result);
          Settle(h, got, &answers[op.index], [&] {
            h.Expect(CheckAnswer(*m, got, kP, query.relevance, kLambda),
                     "dense-churn query");
          });
          if (h.tracing()) {
            h.prune.AddDelta(prune_before, PruneCounts::Now());
            ++h.measured_queries;
            const std::uint64_t root = h.spans.Root("query", t0, t1);
            h.spans.Child(root, "engine.runsync", t0, t1);
            h.layers.Add("engine.runsync_ms", seconds * 1e3);
            SnapshotPtr snap;
            Probe(h, root, "engine.snapshot", "engine.snapshot_us", 1e6,
                  [&] { snap = eng->corpus().snapshot(); });
            ProbeQuery(h, root, snap, query, result, defaults);
            h.spans.Extend(root, Clock::now());
          }
          break;
        }
        case OpKind::kEpoch:
          h.segments.Add(
              EpochOp(h, *eng, nullptr, {}, epochs[op.index], &version, m));
          break;
        case OpKind::kCheckpoint:
          h.segments.Add(CheckpointOp(h, eng->corpus().snapshot(), m, probe,
                                      &restored[op.index]));
          break;
        case OpKind::kCompaction:
          break;
      }
    }
    CheckLatencyHistogram(h, *eng, kQueries);
    if (h.tracing()) ++h.measured_passes;
  };
  RunPasses(h, kQueries, setup, run_pass);
  eng.reset();
  if (h.tracing()) {
    engine::Corpus corpus(inputs.weights,
                          diverse::DenseMetric::FromMatrix(kN, inputs.matrix),
                          kLambda);
    MeasurePruningBuild(h, corpus);
  }
  CheckTheorems(h, /*vectors=*/false);
}

// ---- vector-mixed -----------------------------------------------------------

void VectorMixed(Harness& h) {
  constexpr int kN = 3000;
  constexpr int kDim = 64;
  constexpr int kClusters = 16;
  constexpr double kSpread = 0.35;
  constexpr int kP = 10;
  constexpr double kLambda = 0.02;
  // Source-diversity constraint: 5 sources, at most 2 answers from each.
  constexpr int kSources = 5;
  constexpr int kPerSource = 2;
  // Two local searches per 1000 queries keep the p99 inside the greedy
  // queries' tail: at 2 per 100 the p99 lands on the block's slowest few
  // operations, whose fastest replays still moved with the host's phase.
  constexpr int kQueries = 1000;
  constexpr int kLocalSearches = 2;  // per kQueries
  constexpr int kEpochEvery = 50;
  constexpr int kCheckpointEvery = 500;
  constexpr std::size_t kOutstanding = 3;

  Rng rng(h.config.seed);
  const VectorInputs inputs =
      MakeVectorInputs(kN, kDim, kClusters, kSpread, rng);
  Sim sim(kN);
  std::vector<Op> ops;
  std::vector<Query> queries;
  std::vector<std::vector<CorpusUpdate>> epochs;
  int checkpoints = 0;

  // Partition matroids per id-space size (inserts grow it); an id's source
  // is a seeded hash of the id.
  std::map<int, std::unique_ptr<diverse::PartitionMatroid>> matroids;
  auto partition_for = [&](int universe) {
    Partition partition;
    partition.caps.assign(kSources, kPerSource);
    for (int id = 0; id < universe; ++id) {
      partition.block_of.push_back(
          static_cast<int>(Mix(h.config.seed, id) % kSources));
    }
    return partition;
  };
  auto matroid_for = [&](int universe) -> const diverse::Matroid* {
    auto& slot = matroids[universe];
    if (!slot) {
      Partition partition = partition_for(universe);
      slot = std::make_unique<diverse::PartitionMatroid>(
          std::move(partition.block_of), std::move(partition.caps));
    }
    return slot.get();
  };

  std::vector<char> local_search(kQueries, 0);
  for (int placed = 0; placed < kLocalSearches;) {
    const int at = rng.Below(kQueries);
    if (!local_search[at]) {
      local_search[at] = 1;
      ++placed;
    }
  }
  for (int i = 0; i < kQueries; ++i) {
    Query query;
    query.p = kP;
    query.relevance = MakeRelevance(sim.universe, rng);
    if (local_search[i]) {
      query.algorithm = engine::QueryAlgorithm::kLocalSearch;
      query.matroid = matroid_for(sim.universe);
    }
    ops.push_back({OpKind::kQuery, static_cast<int>(queries.size())});
    queries.push_back(std::move(query));
    if ((i + 1) % kEpochEvery == 0) {
      ops.push_back({OpKind::kEpoch, static_cast<int>(epochs.size())});
      epochs.push_back(VectorEpoch(rng, sim, inputs, 2, 1, 1));
    }
    if ((i + 1) % kCheckpointEvery == 0) {
      ops.push_back({OpKind::kCheckpoint, checkpoints++});
    }
  }
  Query probe;
  probe.p = kP;

  const DiversificationEngine::Options options = EngineOptions();
  const engine::PlanDefaults defaults = Defaults(options);
  std::unique_ptr<DiversificationEngine> eng;
  std::vector<Answer> answers(queries.size());
  std::vector<CheckpointRecord> restored(checkpoints);

  auto setup = [&] {
    eng.reset();
    eng = std::make_unique<DiversificationEngine>(
        inputs.weights, diverse::VectorMetric::FromRows(kDim, inputs.rows),
        kLambda, options);
  };
  struct Pending {
    int index;
    Clock::time_point submitted;
    std::future<QueryResult> future;
    SnapshotPtr snap;  // traced runs: the version the query was sent to
  };
  struct Served {
    int index;
    Clock::time_point submitted;
    Clock::time_point done;
    SnapshotPtr snap;
    QueryResult result;
  };
  auto run_pass = [&] {
    std::optional<Mirror> mirror;
    if (h.verifying()) {
      mirror.emplace(
          Mirror::Vector(inputs.weights, inputs.rows, kDim, kLambda));
    }
    Mirror* m = mirror ? &*mirror : nullptr;
    std::uint64_t version = 0;
    std::deque<Pending> window;
    Clock::time_point last_done;
    std::vector<Served> served;
    auto collect = [&] {
      Pending pending = std::move(window.front());
      window.pop_front();
      QueryResult result = pending.future.get();
      const Clock::time_point done = Clock::now();
      RecordLatency(h, result.latency_seconds,
                    Seconds(pending.submitted, done));
      // Service time: the one worker takes a query when it is sent or
      // when the query before it completes, whichever is later. The
      // client waits on the oldest query, so it sees completions as they
      // happen.
      h.queries.Add(Seconds(std::max(pending.submitted, last_done), done));
      last_done = done;
      const Query& query = queries[pending.index];
      const Answer got = ToAnswer(result);
      Settle(h, got, &answers[pending.index], [&] {
        h.Expect(CheckAnswer(*m, got, kP, query.relevance, kLambda),
                 "vector-mixed query");
        if (query.algorithm == engine::QueryAlgorithm::kLocalSearch) {
          const Partition partition = partition_for(m->universe());
          h.Expect(CheckPartitionBasis(*m, got.elements, partition),
                   "vector-mixed local search");
          h.Expect(CheckNoImprovingSwap(*m, got.elements, partition,
                                        query.relevance, kLambda),
                   "vector-mixed local search");
        }
      });
      if (h.tracing()) {
        served.push_back({pending.index, pending.submitted, done,
                          std::move(pending.snap), std::move(result)});
      }
    };
    const PruneCounts prune_before = PruneCounts::Now();
    // One segment per operation: the client's time from finishing the
    // previous operation to finishing this one (waits on older queries
    // included); the drain after the last operation is one more.
    Clock::time_point segment_start = Clock::now();
    auto end_segment = [&] {
      const Clock::time_point now = Clock::now();
      h.segments.Add(Seconds(segment_start, now));
      segment_start = now;
    };
    for (const Op& op : ops) {
      ++h.result->attempted;
      switch (op.kind) {
        case OpKind::kQuery: {
          while (window.size() >= kOutstanding) collect();
          Pending pending;
          pending.index = op.index;
          if (h.tracing()) pending.snap = eng->corpus().snapshot();
          pending.submitted = Clock::now();
          pending.future = eng->Submit(queries[op.index]);
          window.push_back(std::move(pending));
          break;
        }
        case OpKind::kEpoch:
          // Drain first: every query is then served at the version it was
          // sent to, so answers repeat exactly from pass to pass.
          while (!window.empty()) collect();
          EpochOp(h, *eng, nullptr, {}, epochs[op.index], &version, m);
          break;
        case OpKind::kCheckpoint:
          CheckpointOp(h, eng->corpus().snapshot(), m, probe,
                       &restored[op.index]);
          break;
        case OpKind::kCompaction:
          break;
      }
      end_segment();
    }
    while (!window.empty()) collect();
    end_segment();
    CheckLatencyHistogram(h, *eng, kQueries);
    if (!h.tracing()) return;
    h.prune.AddDelta(prune_before, PruneCounts::Now());
    h.measured_queries += kQueries;
    ++h.measured_passes;
    const diverse::obs::Histogram& waits = eng->queue_wait_histogram();
    h.layers.Add("engine.queue_wait_ms",
                 waits.sum() / static_cast<double>(waits.count()) * 1e3);
    // Layer probes run after the stream, alone on the machine, on the
    // snapshot each query was served from.
    for (const Served& s : served) {
      const std::uint64_t root = h.spans.Root("query", s.submitted, s.done);
      Probe(h, root, "engine.snapshot", "engine.snapshot_us", 1e6,
            [&] { eng->corpus().snapshot(); });
      ProbeQuery(h, root, s.snap, queries[s.index], s.result, defaults);
    }
  };
  RunPasses(h, kQueries, setup, run_pass);
  eng.reset();
  if (h.tracing()) {
    engine::Corpus corpus(inputs.weights,
                          diverse::VectorMetric::FromRows(kDim, inputs.rows),
                          kLambda);
    MeasurePruningBuild(h, corpus);
  }
  CheckTheorems(h, /*vectors=*/true);
}

// ---- loopback-sharded -------------------------------------------------------

// Sits between the coordinator and one SocketTransport: counts calls,
// bytes and round-trip time, and (traced runs) keeps the last shard-query
// exchange for the codec probes.
class CountingTransport : public rpc::Transport {
 public:
  struct Totals {
    long long calls = 0;
    long long bytes = 0;
    double seconds = 0.0;
  };

  CountingTransport(rpc::Transport* inner, bool capture)
      : inner_(inner), capture_(capture) {}

  bool Call(const std::vector<std::uint8_t>& request,
            std::vector<std::uint8_t>* response) override {
    const Clock::time_point t0 = Clock::now();
    const bool ok = inner_->Call(request, response);
    const double seconds = Seconds(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    ++totals_.calls;
    totals_.bytes += static_cast<long long>(request.size()) +
                     (ok ? static_cast<long long>(response->size()) : 0);
    totals_.seconds += seconds;
    if (capture_ && ok &&
        rpc::PeekType(request) == rpc::MessageType::kShardQueryRequest) {
      last_request_ = request;
      last_response_ = *response;
    }
    return ok;
  }

  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }
  std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
  last_query_exchange() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {last_request_, last_response_};
  }

 private:
  rpc::Transport* const inner_;
  const bool capture_;
  mutable std::mutex mu_;
  Totals totals_;  // guarded by mu_
  std::vector<std::uint8_t> last_request_;   // guarded by mu_
  std::vector<std::uint8_t> last_response_;  // guarded by mu_
};

// Two shard replicas behind loopback SocketServers, the coordinator on
// counting SocketTransports, and the engine. Members are destroyed in
// reverse order: engine, coordinator, transports, servers, replicas.
struct Cluster {
  std::vector<std::unique_ptr<rpc::ShardNode>> nodes;
  std::vector<std::unique_ptr<rpc::SocketServer>> servers;
  std::vector<std::unique_ptr<rpc::SocketTransport>> sockets;
  std::vector<std::unique_ptr<CountingTransport>> wires;
  std::unique_ptr<rpc::Coordinator> coordinator;
  std::unique_ptr<DiversificationEngine> engine;

  std::vector<rpc::ShardNode*> replicas() const {
    std::vector<rpc::ShardNode*> out;
    for (const auto& node : nodes) out.push_back(node.get());
    return out;
  }
  CountingTransport::Totals wire_totals() const {
    CountingTransport::Totals sum;
    for (const auto& wire : wires) {
      const CountingTransport::Totals t = wire->totals();
      sum.calls += t.calls;
      sum.bytes += t.bytes;
      sum.seconds += t.seconds;
    }
    return sum;
  }
};

// Wire codec timings on one captured shard exchange, plus the round-trip
// check: decoding, re-encoding and decoding again changes nothing.
void ProbeWire(Harness& h, std::uint64_t root, const Cluster& cluster) {
  const auto [request_bytes, response_bytes] =
      cluster.wires.front()->last_query_exchange();
  rpc::ShardQueryRequest request;
  rpc::ShardQueryResponse response;
  bool decoded = false;
  const Clock::time_point d0 = Clock::now();
  decoded = rpc::Decode(request_bytes, &request) &&
            rpc::Decode(response_bytes, &response);
  const Clock::time_point d1 = Clock::now();
  std::vector<std::uint8_t> request_again;
  std::vector<std::uint8_t> response_again;
  const Clock::time_point e0 = Clock::now();
  request_again = rpc::Encode(request);
  response_again = rpc::Encode(response);
  const Clock::time_point e1 = Clock::now();
  h.spans.Child(root, "rpc.decode", d0, d1);
  h.spans.Child(root, "rpc.encode", e0, e1);
  h.layers.Add("rpc.decode_us", Seconds(d0, d1) * 1e6);
  h.layers.Add("rpc.encode_us", Seconds(e0, e1) * 1e6);
  rpc::ShardQueryRequest request_back;
  rpc::ShardQueryResponse response_back;
  if (!decoded || !rpc::Decode(request_again, &request_back) ||
      !rpc::Decode(response_again, &response_back)) {
    h.Fail("captured shard exchange did not decode");
    return;
  }
  h.Expect(CheckRoundTrip(request, request_back), "wire codec");
  h.Expect(CheckRoundTrip(response, response_back), "wire codec");
}

void LoopbackSharded(Harness& h) {
  constexpr int kN = 1000;
  constexpr int kP = 10;
  constexpr double kLambda = 0.2;
  constexpr int kNodes = 2;
  constexpr int kShards = 2;
  constexpr int kQueries = 1000;
  constexpr int kEpochEvery = 10;
  constexpr int kCompactEvery = 200;
  constexpr int kCheckpointEvery = 500;

  Rng rng(h.config.seed);
  const DenseInputs inputs = MakeDenseInputs(kN, rng);
  Sim sim(kN);
  // Version 1, published before the replicas join: they bootstrap from
  // the image of a version >= 1 (a version-0 image is never retained).
  const std::vector<CorpusUpdate> first_epoch = DenseEpoch(rng, sim, 4, 2, 0, 1);
  std::vector<Op> ops;
  std::vector<Query> queries;
  std::vector<std::vector<CorpusUpdate>> epochs;
  int checkpoints = 0;
  for (int i = 0; i < kQueries; ++i) {
    Query query;
    query.p = kP;
    query.relevance = MakeRelevance(sim.universe, rng);
    query.plan = engine::PlanKind::kRemoteSharded;
    query.num_shards = kShards;
    query.shard_salt = rng.Next();
    ops.push_back({OpKind::kQuery, static_cast<int>(queries.size())});
    queries.push_back(std::move(query));
    if ((i + 1) % kEpochEvery == 0) {
      ops.push_back({OpKind::kEpoch, static_cast<int>(epochs.size())});
      epochs.push_back(DenseEpoch(rng, sim, 4, 2, 0, 1));
    }
    if ((i + 1) % kCompactEvery == 0) ops.push_back({OpKind::kCompaction, 0});
    if ((i + 1) % kCheckpointEvery == 0) {
      ops.push_back({OpKind::kCheckpoint, checkpoints++});
    }
  }
  Query probe;
  probe.p = kP;

  std::unique_ptr<Cluster> cluster;
  std::vector<Answer> answers(queries.size());
  std::vector<CheckpointRecord> restored(checkpoints);
  auto setup = [&] {
    cluster.reset();
    auto c = std::make_unique<Cluster>();
    std::vector<rpc::Transport*> wires;
    for (int i = 0; i < kNodes; ++i) {
      c->nodes.push_back(std::make_unique<rpc::ShardNode>());
      c->servers.push_back(
          std::make_unique<rpc::SocketServer>(c->nodes.back().get(), 0));
      c->servers.back()->Start();
      c->sockets.push_back(std::make_unique<rpc::SocketTransport>(
          "127.0.0.1", c->servers.back()->port()));
      c->wires.push_back(std::make_unique<CountingTransport>(
          c->sockets.back().get(), h.tracing()));
      wires.push_back(c->wires.back().get());
    }
    c->coordinator = std::make_unique<rpc::Coordinator>(wires);
    DiversificationEngine::Options options = EngineOptions();
    options.remote = c->coordinator.get();
    c->engine = std::make_unique<DiversificationEngine>(
        inputs.weights, diverse::DenseMetric::FromMatrix(kN, inputs.matrix),
        kLambda, options);
    const std::uint64_t v = c->engine->ApplyUpdates(first_epoch);
    c->coordinator->PublishEpoch(v, first_epoch);
    c->coordinator->CompactLog(*c->engine->corpus().snapshot());
    for (int i = 0; i < kNodes; ++i) {
      if (!c->coordinator->sync().CatchUpTarget(i, 0, v) ||
          c->nodes[i]->version() != v) {
        h.Fail("replica " + std::to_string(i) + " did not join at version " +
               std::to_string(v));
      }
    }
    cluster = std::move(c);
  };
  auto run_pass = [&] {
    DiversificationEngine& eng = *cluster->engine;
    rpc::Coordinator& coordinator = *cluster->coordinator;
    const engine::PlanDefaults defaults = Defaults([&] {
      DiversificationEngine::Options options = EngineOptions();
      options.remote = &coordinator;
      return options;
    }());
    std::optional<Mirror> mirror;
    if (h.verifying()) {
      mirror.emplace(Mirror::Dense(inputs.weights, inputs.matrix, kLambda));
      mirror->Apply(first_epoch);
    }
    Mirror* m = mirror ? &*mirror : nullptr;
    std::uint64_t version = eng.corpus().version();
    const rpc::Coordinator::Stats pass_start = coordinator.stats();
    for (const Op& op : ops) {
      ++h.result->attempted;
      switch (op.kind) {
        case OpKind::kQuery: {
          const Query& query = queries[op.index];
          const rpc::Coordinator::Stats before = coordinator.stats();
          const CountingTransport::Totals wire_before = cluster->wire_totals();
          const PruneCounts prune_before = PruneCounts::Now();
          const Clock::time_point t0 = Clock::now();
          const QueryResult result = eng.RunSync(query);
          const Clock::time_point t1 = Clock::now();
          const double seconds = Seconds(t0, t1);
          h.queries.Add(seconds);
          h.segments.Add(seconds);
          RecordLatency(h, result.latency_seconds, seconds);
          const rpc::Coordinator::Stats after = coordinator.stats();
          // A shard kernel answered on-box never touched the wire.
          if (after.local_fallbacks != before.local_fallbacks) {
            ++h.result->failed;
          }
          const SnapshotPtr snap = eng.corpus().snapshot();
          const Answer got = ToAnswer(result);
          Settle(h, got, &answers[op.index], [&] {
            h.Expect(CheckAnswer(*m, got, kP, query.relevance, kLambda),
                     "loopback query");
            Query local = query;
            local.plan = engine::PlanKind::kSharded;
            if (!SameAnswer(got, ToAnswer(engine::ExecuteQuery(
                                     *snap, local, defaults)))) {
              h.Fail("remote answer differs from in-process kSharded");
            }
          });
          if (h.tracing()) {
            const CountingTransport::Totals wire_after =
                cluster->wire_totals();
            h.prune.AddDelta(prune_before, PruneCounts::Now());
            ++h.measured_queries;
            h.layers.Add("rpc.call_us",
                         (wire_after.seconds - wire_before.seconds) /
                             (wire_after.calls - wire_before.calls) * 1e6);
            h.layers.Add("rpc.calls_per_query",
                         static_cast<double>(wire_after.calls -
                                             wire_before.calls));
            h.layers.Add("rpc.bytes_per_query",
                         static_cast<double>(wire_after.bytes -
                                             wire_before.bytes));
            h.layers.Add("rpc.remote_shards",
                         static_cast<double>(after.remote_shards -
                                             before.remote_shards));
            h.layers.Add("rpc.local_fallbacks",
                         static_cast<double>(after.local_fallbacks -
                                             before.local_fallbacks));
            const std::uint64_t root = h.spans.Root("query", t0, t1);
            h.spans.Child(root, "engine.runsync", t0, t1);
            h.layers.Add("engine.runsync_ms", seconds * 1e3);
            ProbeWire(h, root, *cluster);
            Probe(h, root, "engine.snapshot", "engine.snapshot_us", 1e6,
                  [&] { eng.corpus().snapshot(); });
            ProbeQuery(h, root, snap, query, result, defaults);
            h.spans.Extend(root, Clock::now());
          }
          break;
        }
        case OpKind::kEpoch:
          h.segments.Add(EpochOp(h, eng, &coordinator, cluster->replicas(),
                                 epochs[op.index], &version, m));
          break;
        case OpKind::kCompaction: {
          const Clock::time_point t0 = Clock::now();
          coordinator.CompactLog(*eng.corpus().snapshot());
          const Clock::time_point t1 = Clock::now();
          h.segments.Add(Seconds(t0, t1));
          if (h.tracing()) {
            const std::uint64_t root = h.spans.Root("compaction", t0, t1);
            h.spans.Child(root, "replication.compact", t0, t1);
            h.layers.Add("replication.compact_ms", Seconds(t0, t1) * 1e3);
          }
          break;
        }
        case OpKind::kCheckpoint:
          h.segments.Add(CheckpointOp(h, eng.corpus().snapshot(), m, probe,
                                      &restored[op.index]));
          break;
      }
    }
    CheckLatencyHistogram(h, eng, kQueries);
    const rpc::Coordinator::Stats pass_end = coordinator.stats();
    if (pass_end.local_fallbacks != pass_start.local_fallbacks) {
      h.Fail("shard kernels fell back to local execution");
    }
    if (h.tracing()) {
      ++h.measured_passes;
      h.layers.Add("replication.catchup_batches",
                   static_cast<double>(pass_end.catchup_batches -
                                       pass_start.catchup_batches));
      h.layers.Add("replication.snapshots_sent",
                   static_cast<double>(pass_end.snapshots_sent -
                                       pass_start.snapshots_sent));
    }
  };
  RunPasses(h, kQueries, setup, run_pass);
  cluster.reset();
  if (h.tracing()) {
    engine::Corpus corpus(inputs.weights,
                          diverse::DenseMetric::FromMatrix(kN, inputs.matrix),
                          kLambda);
    MeasurePruningBuild(h, corpus);
  }
  CheckTheorems(h, /*vectors=*/false);
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buffer[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": " + buffer;
  }
  return out + "}";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "dense-churn", "vector-mixed", "loopback-sharded"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  Harness h(config, &result);
  if (config.workload == "dense-churn") {
    DenseChurn(h);
  } else if (config.workload == "vector-mixed") {
    VectorMixed(h);
  } else if (config.workload == "loopback-sharded") {
    LoopbackSharded(h);
  } else {
    h.Fail("unknown workload " + config.workload);
    return result;
  }
  CheckLatencyAgreement(h);
  std::vector<Metric> end_to_end;
  ReportEndToEnd(h, &end_to_end);
  if (!config.trace) {
    result.metrics = end_to_end;
    return result;
  }
  // Per-layer values from the traced run. Counter deltas are normalised
  // per query or per pass.
  const double queries = std::max<long long>(1, h.measured_queries);
  h.layers.Set("metric.candidates_pruned", h.prune.pruned / queries);
  h.layers.Set("metric.scans_certified", h.prune.certified / queries);
  h.layers.Set("metric.scans_fallback", h.prune.fallback / queries);
  h.layers.Set("metric.index_rebuilds",
               static_cast<double>(h.prune.rebuilds) /
                   std::max(1, h.measured_passes));
  for (const LayerMetric& layer : kLayerMetrics) {
    result.metrics.push_back({layer.name, layer.unit, h.layers.Value(layer.name)});
  }
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  const std::string extra = ",\n\"workload\": \"" + config.workload +
                            "\",\n\"passes\": " +
                            std::to_string(h.queries.passes()) +
                            ",\n\"traced_end_to_end\": " +
                            JsonMetrics(end_to_end) +
                            ",\n\"per_layer\": " + JsonMetrics(result.metrics);
  if (!h.spans.WriteJson(path, extra)) {
    h.Fail("could not write " + path);
  } else {
    std::fprintf(stderr, "servebench: %zu spans written to %s\n",
                 h.spans.size(), path.c_str());
  }
  return result;
}

}  // namespace servebench
