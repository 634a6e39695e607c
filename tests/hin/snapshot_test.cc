#include "hin/snapshot.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "hin/io.h"
#include "hin/tqq_schema.h"
#include "obs/metrics.h"
#include "synth/tqq_generator.h"
#include "temp_path.h"
#include "util/random.h"

namespace hinpriv::hin {
namespace {

using testing_support::TempPath;

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_link_types(), b.num_link_types());
  ASSERT_EQ(a.schema().num_entity_types(), b.schema().num_entity_types());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.entity_type(v), b.entity_type(v));
    ASSERT_EQ(a.dense_index(v), b.dense_index(v));
    const size_t num_attrs = a.num_attributes(a.entity_type(v));
    for (AttributeId attr = 0; attr < num_attrs; ++attr) {
      ASSERT_EQ(a.attribute(v, attr), b.attribute(v, attr));
    }
    for (LinkTypeId lt = 0; lt < a.num_link_types(); ++lt) {
      const auto out_a = a.OutEdges(lt, v);
      const auto out_b = b.OutEdges(lt, v);
      ASSERT_EQ(out_a.size(), out_b.size());
      for (size_t i = 0; i < out_a.size(); ++i) ASSERT_EQ(out_a[i], out_b[i]);
      const auto in_a = a.InEdges(lt, v);
      const auto in_b = b.InEdges(lt, v);
      ASSERT_EQ(in_a.size(), in_b.size());
      for (size_t i = 0; i < in_a.size(); ++i) ASSERT_EQ(in_a[i], in_b[i]);
    }
  }
}

Graph GenerateNetwork(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(SnapshotTest, RoundTripSyntheticNetwork) {
  const Graph graph = GenerateNetwork(800, 1);
  const TempPath temp("rt.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().is_mapped());
  EXPECT_FALSE(graph.is_mapped());
  ExpectGraphsEqual(graph, loaded.value());
}

TEST(SnapshotTest, RoundTripMultiEntityNetwork) {
  synth::TqqFullConfig config;
  config.num_users = 80;
  util::Rng rng(2);
  auto graph = synth::GenerateTqqFullNetwork(config, &rng);
  ASSERT_TRUE(graph.ok());
  const TempPath temp("full.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph.value(), path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(graph.value(), loaded.value());
  EXPECT_EQ(loaded.value().schema().FindEntityType(kTweetType),
            graph.value().schema().FindEntityType(kTweetType));
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  GraphBuilder builder(TqqTargetSchema());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  const TempPath temp("empty.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph.value(), path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices(), 0u);
  EXPECT_EQ(loaded.value().num_edges(), 0u);
}

TEST(SnapshotTest, VerifyEdgesAcceptsWellFormedSnapshot) {
  const Graph graph = GenerateNetwork(300, 3);
  const TempPath temp("verify.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph, path).ok());
  SnapshotOptions options;
  options.verify_edges = true;
  auto loaded = LoadGraphSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(graph, loaded.value());
}

TEST(SnapshotTest, MlockRequestIsSoft) {
  const Graph graph = GenerateNetwork(100, 4);
  const TempPath temp("mlock.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph, path).ok());
  SnapshotOptions options;
  options.mlock = true;
  // mlock may fail under RLIMIT_MEMLOCK; the load must succeed regardless.
  auto loaded = LoadGraphSnapshot(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(graph, loaded.value());
}

TEST(SnapshotTest, LoadGraphAutoSniffsSnapshotMagic) {
  const Graph graph = GenerateNetwork(200, 5);
  const TempPath temp("auto.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphAuto(graph, path).ok());  // .snap => snapshot format
  auto loaded = LoadGraphAuto(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().is_mapped());
  ExpectGraphsEqual(graph, loaded.value());
}

// Out-edges of `mapped` that differ from `expected`, read across every
// adjacency list, so every page of the edge sections is touched.
size_t MismatchedEdges(const Graph& expected, const Graph& mapped) {
  size_t mismatched = 0;
  for (LinkTypeId lt = 0; lt < expected.num_link_types(); ++lt) {
    for (VertexId v = 0; v < expected.num_vertices(); ++v) {
      const auto want = expected.OutEdges(lt, v);
      const auto got = mapped.OutEdges(lt, v);
      if (want.size() != got.size()) {
        mismatched += std::max(want.size(), got.size());
        continue;
      }
      for (size_t i = 0; i < want.size(); ++i) {
        if (!(want[i] == got[i])) ++mismatched;
      }
    }
  }
  return mismatched;
}

// Saving over a path that a live Graph still maps: the writer renames a
// new file into place, so the old mapping keeps the bytes it validated at
// load time and a fresh load sees the new graph. A rewrite in place would
// fault the old mapping: SIGSEGV once a same-size rewrite moves the
// sections, SIGBUS once a shorter one truncates the file.
TEST(SnapshotTest, SaveOverLiveMappingLeavesItIntact) {
  const Graph original = GenerateNetwork(5000, 8);
  const TempPath temp("rewrite.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(original, path).ok());
  auto mapped = LoadGraphSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_TRUE(SaveGraphSnapshot(GenerateNetwork(5000, 9), path).ok());
  EXPECT_EQ(MismatchedEdges(original, mapped.value()), 0u);
  const Graph smaller = GenerateNetwork(200, 10);
  ASSERT_TRUE(SaveGraphSnapshot(smaller, path).ok());
  EXPECT_EQ(MismatchedEdges(original, mapped.value()), 0u);
  ExpectGraphsEqual(original, mapped.value());

  auto reloaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectGraphsEqual(smaller, reloaded.value());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadGraphSnapshot("/no/such/file.snap").status().code(),
            util::Status::Code::kIoError);
}

TEST(SnapshotTest, MappedGraphSurvivesMove) {
  const Graph graph = GenerateNetwork(150, 6);
  const TempPath temp("move.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  // Spans point into the mapping; moving the Graph moves ownership of the
  // mapping without remapping, so views taken before the move stay valid.
  const auto before = loaded.value().OutEdges(0, 0);
  Graph moved = std::move(loaded).value();
  const auto after = moved.OutEdges(0, 0);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(before.data(), after.data());
}

TEST(SnapshotTest, LoadRecordsMetrics) {
  const Graph graph = GenerateNetwork(100, 7);
  const TempPath temp("obs.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(graph, path).ok());
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t loads_before =
      registry.GetCounter("hin/snapshot_loads")->Value();
  const uint64_t bytes_before =
      registry.GetCounter("hin/snapshot_bytes_mapped")->Value();
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(registry.GetCounter("hin/snapshot_loads")->Value(),
            loads_before + 1);
  EXPECT_GT(registry.GetCounter("hin/snapshot_bytes_mapped")->Value(),
            bytes_before);
}

}  // namespace
}  // namespace hinpriv::hin
