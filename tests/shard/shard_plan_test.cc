#include "shard/shard_plan.h"

#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "hin/snapshot.h"
#include "temp_path.h"

namespace hinpriv::shard {
namespace {

hin::NetworkSchema UserSchema() {
  hin::NetworkSchema schema;
  const hin::EntityTypeId user = schema.AddEntityType("User");
  schema.AddAttribute(user, "yob", false);
  schema.AddLinkType("follow", user, user, false, false, false);
  return schema;
}

// A ring with chords so every shard's halo crosses shard boundaries.
hin::Graph MakeRing(size_t n) {
  hin::GraphBuilder builder(UserSchema());
  builder.AddVertices(0, n);
  for (hin::VertexId v = 0; v < n; ++v) {
    EXPECT_TRUE(builder.SetAttribute(v, 0, 1980 + static_cast<int>(v % 40))
                    .ok());
    EXPECT_TRUE(
        builder.AddEdge(v, static_cast<hin::VertexId>((v + 1) % n), 0).ok());
    if (v % 5 == 0) {
      EXPECT_TRUE(
          builder.AddEdge(v, static_cast<hin::VertexId>((v + 7) % n), 0).ok());
    }
  }
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(ShardPlanTest, PartitionCoversEveryVertexExactlyOnce) {
  ShardPlanOptions options;
  options.num_shards = 4;
  const ShardPlan plan(1000, options);
  std::set<hin::VertexId> seen;
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    const std::vector<hin::VertexId> owned = plan.OwnedVertices(s);
    // Owned lists are ascending (the owned-first slice ordering relies on
    // deterministic seed order).
    for (size_t i = 1; i < owned.size(); ++i) {
      EXPECT_LT(owned[i - 1], owned[i]);
    }
    for (hin::VertexId v : owned) {
      EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " owned twice";
    }
    total += owned.size();
  }
  EXPECT_EQ(total, 1000u);

  const std::vector<size_t> counts = plan.OwnedCounts();
  ASSERT_EQ(counts.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(counts[s], plan.OwnedVertices(s).size());
    // Mix64 spreads uniformly; allow wide slack but catch a broken hash
    // that dumps everything in one shard.
    EXPECT_GT(counts[s], 150u);
    EXPECT_LT(counts[s], 350u);
  }
}

TEST(ShardPlanTest, DeterministicAcrossInstancesAndSeedSensitive) {
  ShardPlanOptions options;
  options.num_shards = 3;
  const ShardPlan a(500, options);
  const ShardPlan b(500, options);
  options.hash_seed ^= 0x1234;
  const ShardPlan c(500, options);
  bool any_moved = false;
  for (hin::VertexId v = 0; v < 500; ++v) {
    EXPECT_EQ(a.ShardOf(v), b.ShardOf(v));
    any_moved |= a.ShardOf(v) != c.ShardOf(v);
  }
  EXPECT_TRUE(any_moved);  // a different seed is a different partition
}

TEST(ExtractShardSliceTest, OwnedFirstOrderingAndHaloCompleteness) {
  const hin::Graph aux = MakeRing(60);
  ShardPlanOptions options;
  options.num_shards = 3;
  const ShardPlan plan(aux.num_vertices(), options);
  size_t total_owned = 0;
  for (size_t s = 0; s < 3; ++s) {
    auto slice = ExtractShardSlice(aux, plan, s, /*halo_depth=*/1);
    ASSERT_TRUE(slice.ok());
    const std::vector<hin::VertexId> owned = plan.OwnedVertices(s);
    ASSERT_EQ(slice.value().num_owned, owned.size());
    total_owned += owned.size();
    // to_parent's owned prefix is exactly the plan's owned list, in order.
    for (size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(slice.value().to_parent[i], owned[i]);
    }
    // Every owned vertex's ring neighbors are present in the slice (the
    // depth-1 halo follows both edge directions).
    std::set<hin::VertexId> members(slice.value().to_parent.begin(),
                                    slice.value().to_parent.end());
    EXPECT_EQ(members.size(), slice.value().to_parent.size());
    for (hin::VertexId v : owned) {
      EXPECT_TRUE(members.count((v + 1) % 60));
      EXPECT_TRUE(members.count((v + 59) % 60));
    }
    EXPECT_EQ(slice.value().halo_depth, 1);
  }
  EXPECT_EQ(total_owned, 60u);
}

TEST(ExtractShardSliceTest, RejectsBadShardOrMismatchedPlan) {
  const hin::Graph aux = MakeRing(20);
  ShardPlanOptions options;
  options.num_shards = 2;
  const ShardPlan plan(aux.num_vertices(), options);
  EXPECT_FALSE(ExtractShardSlice(aux, plan, 2, 1).ok());
  const ShardPlan wrong_size(19, options);
  EXPECT_FALSE(ExtractShardSlice(aux, wrong_size, 0, 1).ok());
}

TEST(ShardSliceIoTest, SaveLoadRoundTrip) {
  const hin::Graph aux = MakeRing(40);
  ShardPlanOptions options;
  options.num_shards = 2;
  const ShardPlan plan(aux.num_vertices(), options);
  auto slice = ExtractShardSlice(aux, plan, 1, /*halo_depth=*/2);
  ASSERT_TRUE(slice.ok());

  const testing_support::TempPath slices("slices");
  const std::string& prefix = slices.path();
  ASSERT_TRUE(SaveShardSlice(slice.value(), prefix, 1, 2).ok());
  auto loaded = LoadShardSlice(prefix, 1, 2, 2, hin::SnapshotOptions{});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_owned, slice.value().num_owned);
  EXPECT_EQ(loaded.value().halo_depth, 2);
  EXPECT_EQ(loaded.value().to_parent, slice.value().to_parent);
  EXPECT_EQ(loaded.value().graph.num_vertices(),
            slice.value().graph.num_vertices());
  EXPECT_EQ(loaded.value().graph.num_edges(), slice.value().graph.num_edges());
}

TEST(ShardSliceIoTest, MissingSliceIsNotFound) {
  const testing_support::TempPath slices("slices");
  const std::string& prefix = slices.path();
  auto loaded = LoadShardSlice(prefix, 0, 2, 1, hin::SnapshotOptions{});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::Status::Code::kNotFound);
}

TEST(ShardSliceIoTest, RejectsHaloDepthMismatchAndTruncation) {
  const hin::Graph aux = MakeRing(30);
  ShardPlanOptions options;
  options.num_shards = 2;
  const ShardPlan plan(aux.num_vertices(), options);
  auto slice = ExtractShardSlice(aux, plan, 0, /*halo_depth=*/1);
  ASSERT_TRUE(slice.ok());
  const testing_support::TempPath slices("slices");
  const std::string& prefix = slices.path();
  ASSERT_TRUE(SaveShardSlice(slice.value(), prefix, 0, 2).ok());

  // A slice saved at depth 1 does not satisfy a depth-2 request: the
  // depth-2 sidecar simply does not exist.
  auto wrong_depth = LoadShardSlice(prefix, 0, 2, 2, hin::SnapshotOptions{});
  ASSERT_FALSE(wrong_depth.ok());
  EXPECT_EQ(wrong_depth.status().code(), util::Status::Code::kNotFound);

  // Truncate the sidecar mid-array: load must fail loudly, not return a
  // slice with a short id map.
  const std::string map_path = ShardMapPath(prefix, 0, 2, 1);
  std::FILE* f = std::fopen(map_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(map_path.c_str(), size - 5), 0);
  auto truncated = LoadShardSlice(prefix, 0, 2, 1, hin::SnapshotOptions{});
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), util::Status::Code::kCorruption);

  // Corrupt the magic: also a loud failure.
  f = std::fopen(map_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fputc('X', f);
  std::fclose(f);
  auto bad_magic = LoadShardSlice(prefix, 0, 2, 1, hin::SnapshotOptions{});
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), util::Status::Code::kCorruption);
}

}  // namespace
}  // namespace hinpriv::shard
