// Tests for the benchmark's own checkers: each must reject known-bad
// answers, and the brute-force oracle must match hand-computed optima.
//
// Build and run:
//   cmake -S servebench -B .bench_build/servebench
//   cmake --build .bench_build/servebench --target servebench_checks_test
//   .bench_build/servebench/servebench_checks_test
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "engine/corpus.h"
#include "metric/dense_metric.h"
#include "rpc/wire.h"
#include "snapshot/snapshot_codec.h"

namespace servebench {
namespace {

using diverse::DenseMetric;
using diverse::engine::Corpus;
using diverse::engine::CorpusState;
using diverse::engine::CorpusUpdate;

// Four ids, lambda = 1, weights {1, 0, 0, 0} and
//   d(0,1)=1 d(0,2)=2 d(0,3)=1 d(1,2)=1 d(1,3)=2 d(2,3)=1.
// By hand: phi({0,2}) = 1 + 2 = 3 is the best pair; every triple but
// {1,2,3} (phi 4) scores 5.
constexpr double kLambda = 1.0;
const std::vector<double> kWeights = {1, 0, 0, 0};
const std::vector<double> kMatrix = {0, 1, 2, 1,  //
                                     1, 0, 1, 2,  //
                                     2, 1, 0, 1,  //
                                     1, 2, 1, 0};
const std::vector<double> kNoRelevance;

Mirror Tiny() { return Mirror::Dense(kWeights, kMatrix, kLambda); }

Answer Exact(const Mirror& mirror, std::vector<int> elements) {
  const double phi = mirror.Objective(elements, kNoRelevance, kLambda);
  return {std::move(elements), phi, mirror.version()};
}

TEST(CheckAnswerTest, AcceptsACorrectAnswer) {
  const Mirror mirror = Tiny();
  EXPECT_EQ(CheckAnswer(mirror, Exact(mirror, {0, 2}), 2, kNoRelevance,
                        kLambda),
            "");
}

TEST(CheckAnswerTest, RejectsAnErasedId) {
  Mirror mirror = Tiny();
  mirror.Apply({CorpusUpdate::Erase(2)});
  EXPECT_NE(CheckAnswer(mirror, Exact(mirror, {0, 2}), 2, kNoRelevance,
                        kLambda),
            "");
}

TEST(CheckAnswerTest, RejectsADuplicateId) {
  const Mirror mirror = Tiny();
  EXPECT_NE(CheckAnswer(mirror, Exact(mirror, {0, 0}), 2, kNoRelevance,
                        kLambda),
            "");
}

TEST(CheckAnswerTest, RejectsAnObjectiveOffByOneMillionth) {
  const Mirror mirror = Tiny();
  Answer answer = Exact(mirror, {0, 2});
  answer.objective *= 1.0 + 1e-6;
  EXPECT_NE(CheckAnswer(mirror, answer, 2, kNoRelevance, kLambda), "");
}

TEST(CheckAnswerTest, RejectsAWrongSizeOrVersion) {
  const Mirror mirror = Tiny();
  EXPECT_NE(CheckAnswer(mirror, Exact(mirror, {0}), 2, kNoRelevance,
                        kLambda),
            "");
  Answer stale = Exact(mirror, {0, 2});
  stale.version = 7;
  EXPECT_NE(CheckAnswer(mirror, stale, 2, kNoRelevance, kLambda), "");
}

TEST(CheckAnswerTest, UsesPerQueryRelevance) {
  const Mirror mirror = Tiny();
  const std::vector<double> relevance = {0, 0, 5};  // id 3 past the end: 0
  Answer answer{{2, 3}, 5.0 + 1.0, 0};
  EXPECT_EQ(CheckAnswer(mirror, answer, 2, relevance, kLambda), "");
}

TEST(CheckPartitionTest, RejectsASetThatBreaksThePartition) {
  const Mirror mirror = Tiny();
  const Partition partition{{0, 1, 0, 1}, {1, 1}};
  EXPECT_EQ(CheckPartitionBasis(mirror, {0, 1}, partition), "");
  EXPECT_NE(CheckPartitionBasis(mirror, {0, 2}, partition), "");
  EXPECT_NE(CheckPartitionBasis(mirror, {0}, partition), "");  // not a basis
}

TEST(CheckSwapTest, RejectsALocalSearchAnswerWithAnImprovingSwap) {
  const Mirror mirror = Tiny();
  const Partition uniform{{0, 0, 0, 0}, {2}};
  // {1,2} (phi 1) improves to {0,2} (phi 3) by swapping 1 for 0.
  EXPECT_NE(CheckNoImprovingSwap(mirror, {1, 2}, uniform, kNoRelevance,
                                 kLambda),
            "");
  EXPECT_EQ(CheckNoImprovingSwap(mirror, {0, 2}, uniform, kNoRelevance,
                                 kLambda),
            "");
  // {1,3} (phi 2) is a local optimum below OPT: no single swap helps.
  EXPECT_EQ(CheckNoImprovingSwap(mirror, {1, 3}, uniform, kNoRelevance,
                                 kLambda),
            "");
}

TEST(CheckSwapTest, RespectsThePartitionWhenSwapping) {
  const Mirror mirror = Tiny();
  // Blocks {0,2} and {1,3}, one each: {0,2} is infeasible, so from {0,1}
  // the only swaps are 0->2 and 1->3, neither of which improves.
  const Partition partition{{0, 1, 0, 1}, {1, 1}};
  EXPECT_EQ(CheckNoImprovingSwap(mirror, {0, 1}, partition, kNoRelevance,
                                 kLambda),
            "");
  // {1,2} (phi 1) improves by swapping 2 for 0 (phi({0,1}) = 2).
  EXPECT_NE(CheckNoImprovingSwap(mirror, {1, 2}, partition, kNoRelevance,
                                 kLambda),
            "");
}

TEST(BruteForceTest, MatchesHandComputedOptima) {
  const Mirror mirror = Tiny();
  EXPECT_DOUBLE_EQ(BruteForceCardinality(mirror, 2, kNoRelevance, kLambda),
                   3.0);
  EXPECT_DOUBLE_EQ(BruteForceCardinality(mirror, 3, kNoRelevance, kLambda),
                   5.0);
  const Partition partition{{0, 1, 0, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(BruteForcePartition(mirror, partition, kNoRelevance,
                                       kLambda),
                   2.0);
  Mirror erased = Tiny();
  erased.Apply({CorpusUpdate::Erase(0)});
  // Without id 0 the best pair is {1,3} at 2.
  EXPECT_DOUBLE_EQ(BruteForceCardinality(erased, 2, kNoRelevance, kLambda),
                   2.0);
}

TEST(MirrorTest, VectorDistancesAreEuclidean) {
  const Mirror mirror =
      Mirror::Vector({1, 1}, {0.0, 0.0, 3.0, 4.0}, 2, kLambda);
  EXPECT_DOUBLE_EQ(mirror.Distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(mirror.Objective({0, 1}, kNoRelevance, kLambda), 7.0);
}

TEST(CheckRestoredTest, RejectsABadCodecRoundTrip) {
  Corpus corpus(kWeights, DenseMetric::FromMatrix(4, kMatrix), kLambda);
  const std::vector<std::uint8_t> image =
      diverse::snapshot::EncodeSnapshot(*corpus.snapshot());
  CorpusState state;
  ASSERT_TRUE(diverse::snapshot::DecodeSnapshot(image, &state));
  CorpusState tampered = state;
  const Corpus good(std::move(state));
  EXPECT_EQ(CheckRestored(Tiny(), *good.snapshot()), "");

  tampered.weights[3] = std::nextafter(tampered.weights[3], 1.0);
  const Corpus bad(std::move(tampered));
  EXPECT_NE(CheckRestored(Tiny(), *bad.snapshot()), "");
}

TEST(CheckRestoredTest, RejectsADistanceThatChanged) {
  std::vector<double> matrix = kMatrix;
  matrix[1 * 4 + 3] = matrix[3 * 4 + 1] = 1.5;
  const Corpus other(kWeights, DenseMetric::FromMatrix(4, matrix), kLambda);
  EXPECT_NE(CheckRestored(Tiny(), *other.snapshot()), "");
}

TEST(CheckEpochTest, RejectsAnEpochThatWasNotPublished) {
  Corpus corpus(kWeights, DenseMetric::FromMatrix(4, kMatrix), kLambda);
  Mirror mirror = Tiny();
  const std::vector<CorpusUpdate> epoch = {
      CorpusUpdate::SetWeight(1, 0.5), CorpusUpdate::SetDistance(0, 3, 1.25),
      CorpusUpdate::Insert(0.25, {1.5, 1.5, 1.5, 1.5})};
  mirror.Apply(epoch);
  corpus.Apply(epoch);
  EXPECT_EQ(CheckEpochVisible(mirror, *corpus.snapshot(), epoch), "");

  Mirror ahead = mirror;
  const std::vector<CorpusUpdate> next = {CorpusUpdate::SetWeight(2, 0.75)};
  ahead.Apply(next);
  corpus.Apply({CorpusUpdate::SetWeight(2, 0.5)});  // not what was sent
  EXPECT_NE(CheckEpochVisible(ahead, *corpus.snapshot(), next), "");
}

TEST(CheckRoundTripTest, RejectsABadWireRoundTrip) {
  diverse::rpc::ShardQueryRequest request;
  request.snapshot_version = 3;
  request.shard_salt = 42;
  request.num_shards = 2;
  request.shard_index = 1;
  request.p = 5;
  request.relevance = {0.25, 0.5, 0.75};
  diverse::rpc::ShardQueryRequest decoded;
  ASSERT_TRUE(diverse::rpc::Decode(diverse::rpc::Encode(request), &decoded));
  EXPECT_EQ(CheckRoundTrip(request, decoded), "");
  decoded.relevance[1] = std::nextafter(decoded.relevance[1], 1.0);
  EXPECT_NE(CheckRoundTrip(request, decoded), "");

  diverse::rpc::ShardQueryResponse response;
  response.node_version = 3;
  response.elements = {4, 1, 7};
  response.objective = 2.5;
  diverse::rpc::ShardQueryResponse back;
  ASSERT_TRUE(diverse::rpc::Decode(diverse::rpc::Encode(response), &back));
  EXPECT_EQ(CheckRoundTrip(response, back), "");
  back.elements[2] = 8;
  EXPECT_NE(CheckRoundTrip(response, back), "");
}

}  // namespace
}  // namespace servebench
