// Differential proof that the zero-copy storage path changes nothing about
// attack semantics: the same auxiliary network loaded two ways — the heap
// arena built by the text loader and the mmap'd HINPRIVS snapshot — must
// answer Deanonymize and DeanonymizeParallel bit-identically for every
// target vertex, with and without the candidate index.

#include <vector>

#include <gtest/gtest.h>

#include "anon/kdd_anonymizer.h"
#include "core/dehin.h"
#include "hin/io.h"
#include "hin/snapshot.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::core {
namespace {

struct LoadedPair {
  hin::Graph heap;
  hin::Graph mapped;
};

LoadedPair LoadBothWays(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  // Unique per test: concurrent ctest processes share the temp directory,
  // and each test loads its own network.
  const std::string stem =
      testing::TempDir() + "/hinpriv_diff_" +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string text_path = stem + ".graph";
  const std::string snap_path = stem + ".snap";
  EXPECT_TRUE(hin::SaveGraphToFile(graph.value(), text_path).ok());
  EXPECT_TRUE(hin::SaveGraphSnapshot(graph.value(), snap_path).ok());
  auto heap = hin::LoadGraphFromFile(text_path);
  auto mapped = hin::LoadGraphSnapshot(snap_path);
  EXPECT_TRUE(heap.ok());
  EXPECT_TRUE(mapped.ok());
  EXPECT_FALSE(heap.value().is_mapped());
  EXPECT_TRUE(mapped.value().is_mapped());
  return LoadedPair{std::move(heap).value(), std::move(mapped).value()};
}

hin::Graph AnonymizedFrom(const hin::Graph& aux, uint64_t seed) {
  anon::KddAnonymizer anonymizer;
  util::Rng rng(seed);
  auto published = anonymizer.Anonymize(aux, &rng);
  EXPECT_TRUE(published.ok());
  return std::move(published.value().graph);
}

void ExpectIdenticalAnswers(const hin::Graph& heap_aux,
                            const hin::Graph& mapped_aux,
                            const hin::Graph& target, DehinConfig config,
                            int max_distance) {
  Dehin heap_attack(&heap_aux, config);
  Dehin mapped_attack(&mapped_aux, config);
  for (hin::VertexId vt = 0; vt < target.num_vertices(); ++vt) {
    const auto serial_heap = heap_attack.Deanonymize(target, vt, max_distance);
    const auto serial_mapped =
        mapped_attack.Deanonymize(target, vt, max_distance);
    ASSERT_EQ(serial_heap, serial_mapped) << "serial answers differ at vertex "
                                          << vt;
    auto parallel_heap =
        heap_attack.DeanonymizeParallel(target, vt, max_distance);
    auto parallel_mapped =
        mapped_attack.DeanonymizeParallel(target, vt, max_distance);
    ASSERT_TRUE(parallel_heap.ok());
    ASSERT_TRUE(parallel_mapped.ok());
    ASSERT_EQ(parallel_heap.value(), parallel_mapped.value())
        << "parallel answers differ at vertex " << vt;
    ASSERT_EQ(serial_heap, parallel_heap.value())
        << "serial/parallel answers differ at vertex " << vt;
  }
}

TEST(DehinSnapshotDifferentialTest, SelfAttackAnswersAreBitIdentical) {
  LoadedPair pair = LoadBothWays(400, 41);
  const hin::Graph target = AnonymizedFrom(pair.heap, 42);
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  ExpectIdenticalAnswers(pair.heap, pair.mapped, target, config,
                         /*max_distance=*/1);
}

TEST(DehinSnapshotDifferentialTest, IdenticalWithoutCandidateIndex) {
  LoadedPair pair = LoadBothWays(200, 43);
  const hin::Graph target = AnonymizedFrom(pair.heap, 44);
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  config.use_candidate_index = false;
  ExpectIdenticalAnswers(pair.heap, pair.mapped, target, config,
                         /*max_distance=*/1);
}

TEST(DehinSnapshotDifferentialTest, IdenticalAtDistanceTwo) {
  LoadedPair pair = LoadBothWays(150, 45);
  const hin::Graph target = AnonymizedFrom(pair.heap, 46);
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 2;
  ExpectIdenticalAnswers(pair.heap, pair.mapped, target, config,
                         /*max_distance=*/2);
}

// The mapped graph can also play the *target* role (e.g. `serve` pointed
// at two snapshots): answers still match the all-heap configuration.
TEST(DehinSnapshotDifferentialTest, MappedTargetMatchesHeapTarget) {
  LoadedPair pair = LoadBothWays(200, 47);
  DehinConfig config;
  config.match = DefaultTqqMatchOptions();
  config.max_distance = 1;
  Dehin attack(&pair.heap, config);
  for (hin::VertexId vt = 0; vt < pair.heap.num_vertices(); vt += 7) {
    ASSERT_EQ(attack.Deanonymize(pair.heap, vt, 1),
              attack.Deanonymize(pair.mapped, vt, 1))
        << "target-side storage changed the answer at vertex " << vt;
  }
}

}  // namespace
}  // namespace hinpriv::core
