#include "hin/kdd_loader.h"

#include <fstream>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "synth/tqq_generator.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::hin {
namespace {

using testing_support::TempPath;

class KddLoaderTest : public testing::Test {
 protected:
  void SetUp() override {
    files_.user_profile = stem_.path() + "_profile.txt";
    files_.user_sns = stem_.path() + "_sns.txt";
    files_.user_action = stem_.path() + "_action.txt";
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    out << content;
  }

  void WriteDefaultFiles() {
    // Users 100, 200, 300 with profiles; 100 follows 200; 100 mentions 200
    // five times and comments 300 twice.
    WriteFile(files_.user_profile,
              "100\t1980\t1\t120\t5;7;9\n"
              "200\t1985\t0\t80\t0\n"
              "300\t1970\t1\t400\t11\n");
    WriteFile(files_.user_sns, "100\t200\n");
    WriteFile(files_.user_action,
              "100\t200\t5\t0\t0\n"
              "100\t300\t0\t0\t2\n");
  }

  // Names the three files; constructed with the fixture, inside the test.
  const TempPath stem_{"kdd"};
  KddCupFiles files_;
};

TEST_F(KddLoaderTest, LoadsProfilesAndAllLinkChannels) {
  WriteDefaultFiles();
  auto report = LoadKddCupDataset(files_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Graph& g = report.value().graph;
  EXPECT_EQ(report.value().num_users, 3u);
  EXPECT_EQ(report.value().skipped_edges, 0u);

  // File order defines vertex ids: 100 -> 0, 200 -> 1, 300 -> 2.
  EXPECT_EQ(g.attribute(0, kYobAttr), 1980);
  EXPECT_EQ(g.attribute(0, kGenderAttr), 1);
  EXPECT_EQ(g.attribute(0, kTweetCountAttr), 120);
  EXPECT_EQ(g.attribute(0, kTagCountAttr), 3);  // "5;7;9"
  EXPECT_EQ(g.attribute(1, kTagCountAttr), 0);  // "0" == no tags
  EXPECT_EQ(g.attribute(2, kTagCountAttr), 1);  // "11"

  EXPECT_TRUE(g.HasEdge(kFollowLink, 0, 1));
  EXPECT_EQ(g.EdgeStrength(kMentionLink, 0, 1), 5u);
  EXPECT_EQ(g.EdgeStrength(kCommentLink, 0, 2), 2u);
  EXPECT_EQ(g.EdgeStrength(kRetweetLink, 0, 1), 0u);
}

TEST_F(KddLoaderTest, SkipsUnknownUsersWhenConfigured) {
  WriteDefaultFiles();
  WriteFile(files_.user_sns, "100\t200\n100\t999\n");
  auto report = LoadKddCupDataset(files_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().skipped_edges, 1u);

  KddLoadOptions strict;
  strict.skip_unknown_users = false;
  EXPECT_FALSE(LoadKddCupDataset(files_, strict).ok());
}

TEST_F(KddLoaderTest, SelfInteractionsAreDropped) {
  WriteDefaultFiles();
  WriteFile(files_.user_action, "100\t100\t3\t0\t0\n100\t200\t5\t0\t0\n");
  auto report = LoadKddCupDataset(files_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().skipped_edges, 1u);
  EXPECT_EQ(report.value().graph.EdgeStrength(kMentionLink, 0, 1), 5u);
}

TEST_F(KddLoaderTest, RejectsMalformedRows) {
  WriteDefaultFiles();
  WriteFile(files_.user_profile, "100\t1980\t1\t120\n");  // 4 fields
  EXPECT_FALSE(LoadKddCupDataset(files_).ok());

  WriteDefaultFiles();
  WriteFile(files_.user_profile, "abc\t1980\t1\t120\t0\n");
  EXPECT_FALSE(LoadKddCupDataset(files_).ok());

  WriteDefaultFiles();
  WriteFile(files_.user_profile,
            "100\t1980\t1\t120\t0\n100\t1990\t0\t10\t0\n");  // dup id
  EXPECT_FALSE(LoadKddCupDataset(files_).ok());

  WriteDefaultFiles();
  WriteFile(files_.user_action, "100\t200\t-3\t0\t0\n");  // negative
  EXPECT_FALSE(LoadKddCupDataset(files_).ok());
}

TEST_F(KddLoaderTest, MissingFileIsIoError) {
  WriteDefaultFiles();
  files_.user_sns = "/nonexistent/sns.txt";
  const auto report = LoadKddCupDataset(files_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::Status::Code::kIoError);
}

TEST_F(KddLoaderTest, SyntheticNetworkRoundTrips) {
  synth::TqqConfig config;
  config.num_users = 400;
  util::Rng rng(7);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  ASSERT_TRUE(graph.ok());

  ASSERT_TRUE(WriteKddCupDataset(graph.value(), files_).ok());
  auto loaded = LoadKddCupDataset(files_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& g = loaded.value().graph;
  ASSERT_EQ(g.num_vertices(), graph.value().num_vertices());
  ASSERT_EQ(g.num_edges(), graph.value().num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (AttributeId a = 0; a < 4; ++a) {
      ASSERT_EQ(g.attribute(v, a), graph.value().attribute(v, a));
    }
    for (LinkTypeId lt = 0; lt < kNumTqqLinkTypes; ++lt) {
      const auto original = graph.value().OutEdges(lt, v);
      const auto round_tripped = g.OutEdges(lt, v);
      ASSERT_EQ(original.size(), round_tripped.size());
      for (size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(original[i], round_tripped[i]);
      }
    }
  }
}

TEST_F(KddLoaderTest, WriterRejectsNonTqqGraphs) {
  NetworkSchema schema;
  const EntityTypeId node = schema.AddEntityType("N");
  schema.AddLinkType("e", node, node, false, false, false);
  GraphBuilder builder(schema);
  builder.AddVertex(node);
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(WriteKddCupDataset(graph.value(), files_).ok());
}

}  // namespace
}  // namespace hinpriv::hin
