// Differential verification of the sharded scatter-gather tier: for every
// target vertex, the coordinator's merged candidate list must be
// bit-identical to the unsharded core::Dehin scan, across shard counts,
// on both heap-extracted and mmapped slices — plus the tier's degradation
// contract (halo rejection, deadline expiry, one shard down, one shard
// BUSY).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/matchers.h"
#include "service/client.h"
#include "service/json.h"
#include "obs/metrics.h"
#include "service/server.h"
#include "shard/scatter_gather.h"
#include "shard/shard_plan.h"
#include "shard/tier.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::shard {
namespace {

struct TestNetwork {
  hin::Graph aux;
  hin::Graph anonymized;
};

TestNetwork MakeNetwork(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto aux = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(aux.ok());
  anon::StrengthBucketingAnonymizer anonymizer(10);
  auto published = anonymizer.Anonymize(aux.value(), &rng);
  EXPECT_TRUE(published.ok());
  return TestNetwork{std::move(aux).value(),
                     std::move(published.value().graph)};
}

core::DehinConfig MakeDehinConfig(int max_distance) {
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  config.max_distance = max_distance;
  return config;
}

ShardTierConfig MakeTierConfig(size_t num_shards, int halo_depth) {
  ShardTierConfig config;
  config.num_shards = num_shards;
  config.halo_depth = halo_depth;
  config.shard_server.num_workers = 1;
  config.shard_server.default_max_distance = halo_depth;
  config.shard_server.dehin = MakeDehinConfig(halo_depth);
  config.coordinator.num_workers = 2;
  config.coordinator.default_max_distance = halo_depth;
  config.coordinator.dehin = MakeDehinConfig(halo_depth);
  return config;
}

// Reference answers from the library scan the batch experiments use.
std::vector<std::vector<hin::VertexId>> Reference(const TestNetwork& net,
                                                  int max_distance) {
  core::Dehin dehin(&net.aux, MakeDehinConfig(max_distance));
  std::vector<std::vector<hin::VertexId>> expected;
  expected.reserve(net.anonymized.num_vertices());
  for (hin::VertexId vt = 0; vt < net.anonymized.num_vertices(); ++vt) {
    expected.push_back(dehin.Deanonymize(net.anonymized, vt, max_distance));
  }
  return expected;
}

// Queries every target through the tier and asserts the merged response
// equals `expected` bit for bit.
void ExpectBitIdentical(
    uint16_t port, const std::vector<std::vector<hin::VertexId>>& expected,
    int max_distance) {
  auto client = service::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (hin::VertexId vt = 0; vt < expected.size(); ++vt) {
    auto response = client.value().AttackOne(vt, max_distance);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().code, service::ResponseCode::kOk)
        << response.value().error;
    const service::JsonValue& result = response.value().result;
    ASSERT_EQ(result.GetInt("num_candidates", -1),
              static_cast<int64_t>(expected[vt].size()))
        << "target " << vt;
    EXPECT_EQ(result.GetBool("deanonymized", false),
              expected[vt].size() == 1);
    EXPECT_EQ(result.Find("partial"), nullptr);
    const service::JsonValue* list = result.Find("candidates");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->items().size(), expected[vt].size()) << "target " << vt;
    for (size_t i = 0; i < expected[vt].size(); ++i) {
      EXPECT_EQ(list->items()[i].AsInt(),
                static_cast<int64_t>(expected[vt][i]))
          << "target " << vt << " rank " << i;
    }
  }
}

TEST(ShardDifferentialTest, MergedAnswersMatchUnshardedAcrossShardCounts) {
  const TestNetwork net = MakeNetwork(140, 17);
  const int n = 1;
  const auto expected = Reference(net, n);
  // 7 does not divide the vertex space evenly and exceeds the worker count,
  // so it exercises unbalanced shards and sub-vertex-count fan-out.
  for (size_t num_shards : {1u, 2u, 4u, 7u}) {
    ShardTier tier(&net.anonymized, &net.aux,
                   MakeTierConfig(num_shards, n));
    ASSERT_TRUE(tier.Start().ok());
    ASSERT_GT(tier.port(), 0);
    ASSERT_EQ(tier.shard_ports().size(), num_shards);
    size_t total_owned = 0;
    for (size_t owned : tier.owned_counts()) total_owned += owned;
    EXPECT_EQ(total_owned, net.aux.num_vertices());
    ExpectBitIdentical(tier.port(), expected, n);
    tier.Shutdown();
  }
}

TEST(ShardDifferentialTest, MmappedSlicesMatchUnsharded) {
  const TestNetwork net = MakeNetwork(120, 23);
  const int n = 1;
  const auto expected = Reference(net, n);
  ShardTierConfig config = MakeTierConfig(2, n);
  config.slice_prefix = ::testing::TempDir() + "shard_diff_mmap";
  {
    // First start extracts, persists, and serves from the mmapped slices.
    ShardTier tier(&net.anonymized, &net.aux, config);
    ASSERT_TRUE(tier.Start().ok());
    ExpectBitIdentical(tier.port(), expected, n);
    tier.Shutdown();
  }
  {
    // Second start must reuse the persisted slices (and still be correct).
    ShardTier tier(&net.anonymized, &net.aux, config);
    ASSERT_TRUE(tier.Start().ok());
    ExpectBitIdentical(tier.port(), expected, n);
    tier.Shutdown();
  }
  // The slices really are on disk.
  for (size_t s = 0; s < 2; ++s) {
    auto loaded = LoadShardSlice(config.slice_prefix, s, 2, n,
                                 hin::SnapshotOptions{});
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  }
}

TEST(ShardDifferentialTest, RejectsDistanceBeyondHaloDepth) {
  const TestNetwork net = MakeNetwork(80, 31);
  ShardTier tier(&net.anonymized, &net.aux, MakeTierConfig(2, 1));
  ASSERT_TRUE(tier.Start().ok());
  auto client = service::Client::Connect("127.0.0.1", tier.port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().AttackOne(0, /*max_distance=*/2);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, service::ResponseCode::kInvalidRequest);
  EXPECT_NE(response.value().error.find("halo depth"), std::string::npos)
      << response.value().error;
  // The halo-deep request itself still works.
  response = client.value().AttackOne(0, /*max_distance=*/1);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, service::ResponseCode::kOk);
}

TEST(ShardDifferentialTest, ExpiredDeadlineFailsBeforeScatter) {
  const TestNetwork net = MakeNetwork(80, 37);
  ShardTier tier(&net.anonymized, &net.aux, MakeTierConfig(2, 1));
  ASSERT_TRUE(tier.Start().ok());
  auto client = service::Client::Connect("127.0.0.1", tier.port());
  ASSERT_TRUE(client.ok());
  // A deadline this small is already spent by the time the worker picks
  // the request up; the coordinator must answer DEADLINE_EXCEEDED without
  // fanning out a doomed scatter.
  auto response = client.value().AttackOne(0, 1, /*deadline_ms=*/1e-6);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, service::ResponseCode::kDeadlineExceeded);
}

// The value of the sample line `series` in a Prometheus text exposition,
// or -1 when the series is absent.
int64_t SampleValue(const std::string& text, const std::string& series) {
  std::istringstream lines(text);
  const std::string prefix = series + " ";
  for (std::string line; std::getline(lines, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stoll(line.substr(prefix.size()));
    }
  }
  return -1;
}

// Every shard server of a live tier registers its service/* instruments
// under its own `|shard=N` label and the coordinator under none, and each
// shard's stats windows read the same labeled instruments its counters
// feed — a server that sampled one name and queried another would report
// another server's traffic (or none) here.
TEST(ShardDifferentialTest, TierExportsOneLabeledSeriesPerServer) {
  const TestNetwork net = MakeNetwork(80, 43);
  ShardTierConfig config = MakeTierConfig(2, 1);
  config.shard_server.introspection_tick_ms = 20;
  ShardTier tier(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(tier.Start().ok());
  ASSERT_EQ(tier.shard_ports().size(), 2u);

  // Other tests in this process may have counted into the same registry
  // names already; every expectation is relative to these baselines.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string base = "service/requests_received";
  const uint64_t coordinator_before = registry.GetCounter(base)->Value();
  const uint64_t shard_before[2] = {
      registry.GetCounter(base + "|shard=0")->Value(),
      registry.GetCounter(base + "|shard=1")->Value()};

  auto client = service::Client::Connect("127.0.0.1", tier.port());
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kCalls = 12;
  for (hin::VertexId vt = 0; vt < kCalls; ++vt) {
    auto response = client.value().AttackOne(vt, 1);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().code, service::ResponseCode::kOk)
        << response.value().error;
  }
  // Traffic only the coordinator sees (sleep is never scattered), so its
  // series and the shards' differ.
  constexpr uint64_t kCoordinatorOnly = 5;
  for (uint64_t i = 0; i < kCoordinatorOnly; ++i) {
    auto response = client.value().Sleep(0.0);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().code, service::ResponseCode::kOk);
  }

  // Each attack_one reached every shard once; the metrics request is the
  // coordinator's own last one.
  auto metrics = client.value().Metrics();
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().code, service::ResponseCode::kOk);
  const std::string text = metrics.value().result.GetString("text");
  const std::string series = "hinpriv_service_requests_received_total";
  EXPECT_EQ(SampleValue(text, series),
            static_cast<int64_t>(coordinator_before + kCalls +
                                 kCoordinatorOnly + 1))
      << text;
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(
        SampleValue(text, series + "{shard=\"" + std::to_string(s) + "\"}"),
        static_cast<int64_t>(shard_before[s] + kCalls))
        << text;
  }

  // Let a few watchdog ticks sample the shards' windows, then ask each
  // shard port directly. Its stats count its own requests (plus this
  // stats call), its 1 s window sees them, and its widest window — which
  // reaches back to the sample taken at Start — holds exactly its own
  // attack_one traffic: kCalls requests, give or take the stats call
  // itself landing in the last sample.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (size_t s = 0; s < 2; ++s) {
    auto shard_client =
        service::Client::Connect("127.0.0.1", tier.shard_ports()[s]);
    ASSERT_TRUE(shard_client.ok());
    auto stats = shard_client.value().Stats();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats.value().code, service::ResponseCode::kOk);
    const service::JsonValue& result = stats.value().result;
    EXPECT_EQ(result.GetInt("requests_received", -1),
              static_cast<int64_t>(shard_before[s] + kCalls + 1))
        << "shard " << s;
    const service::JsonValue* windows = result.Find("windows");
    ASSERT_NE(windows, nullptr);
    ASSERT_EQ(windows->items().size(), 3u);
    const service::JsonValue& one_second = windows->items().front();
    EXPECT_EQ(one_second.GetDouble("requested_window_sec"), 1.0);
    EXPECT_GT(one_second.GetDouble("qps"), 0.0) << "shard " << s;
    const service::JsonValue& widest = windows->items().back();
    const int64_t received = std::llround(widest.GetDouble("qps") *
                                          widest.GetDouble("window_sec"));
    EXPECT_GE(received, static_cast<int64_t>(kCalls)) << "shard " << s;
    EXPECT_LE(received, static_cast<int64_t>(kCalls + 1)) << "shard " << s;
    const service::JsonValue* latency = widest.Find("latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->GetInt("count", -1), static_cast<int64_t>(kCalls))
        << "shard " << s;
  }
}

// Build the two-shard topology by hand (the pieces ShardTier assembles) so
// one shard can be killed / saturated while the coordinator stays up.
class PartialDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_.emplace(MakeNetwork(120, 41));
    const ShardPlan plan(net_->aux.num_vertices(), ShardPlanOptions{2});
    for (size_t s = 0; s < 2; ++s) {
      auto slice = ExtractShardSlice(net_->aux, plan, s, 1);
      ASSERT_TRUE(slice.ok());
      slices_.push_back(std::move(slice).value());
    }
    for (size_t s = 0; s < 2; ++s) {
      service::ServerConfig cfg;
      cfg.port = 0;
      cfg.num_workers = 1;
      cfg.queue_capacity = 1;  // so one queued sleep saturates the shard
      cfg.default_max_distance = 1;
      cfg.dehin = MakeDehinConfig(1);
      cfg.dehin.candidate_limit = slices_[s].num_owned;
      cfg.aux_id_map = slices_[s].to_parent;
      shards_.push_back(std::make_unique<service::Server>(
          &net_->anonymized, &slices_[s].graph, cfg));
      ASSERT_TRUE(shards_[s]->Start().ok());
    }
    service::ServerConfig coord;
    coord.port = 0;
    coord.num_workers = 2;
    coord.default_max_distance = 1;
    std::vector<ShardEndpoint> endpoints;
    for (size_t s = 0; s < 2; ++s) {
      endpoints.push_back(ShardEndpoint{"127.0.0.1", shards_[s]->port()});
    }
    coordinator_ = std::make_unique<service::Server>(
        &net_->anonymized,
        std::make_unique<ScatterGather>(std::move(endpoints), 1, &net_->aux),
        coord);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  void TearDown() override {
    if (coordinator_ != nullptr) coordinator_->Shutdown();
    for (auto& shard : shards_) {
      if (shard != nullptr) shard->Shutdown();
    }
  }

  // Asserts `result` is a partial answer whose candidates all fall in the
  // surviving shard's owned span, with `failed` named in failed_shards.
  void ExpectPartial(const service::JsonValue& result, size_t failed,
                     const std::string& expect_code) {
    const service::JsonValue* partial = result.Find("partial");
    ASSERT_NE(partial, nullptr);
    EXPECT_TRUE(partial->AsBool());
    const service::JsonValue* failed_shards = result.Find("failed_shards");
    ASSERT_NE(failed_shards, nullptr);
    ASSERT_EQ(failed_shards->items().size(), 1u);
    EXPECT_EQ(failed_shards->items()[0].GetInt("shard", -1),
              static_cast<int64_t>(failed));
    EXPECT_EQ(failed_shards->items()[0].GetString("code", ""), expect_code);
    // Partial candidates are a subset of the unsharded answer, restricted
    // to the surviving shard's ownership.
    const ShardPlan plan(net_->aux.num_vertices(), ShardPlanOptions{2});
    const service::JsonValue* list = result.Find("candidates");
    ASSERT_NE(list, nullptr);
    for (const service::JsonValue& c : list->items()) {
      EXPECT_NE(plan.ShardOf(static_cast<hin::VertexId>(c.AsInt())), failed);
    }
  }

  // optional: TestNetwork holds Graphs, which have no default constructor.
  std::optional<TestNetwork> net_;
  std::vector<ShardSlice> slices_;
  std::vector<std::unique_ptr<service::Server>> shards_;
  std::unique_ptr<service::Server> coordinator_;
};

TEST_F(PartialDegradationTest, DownedShardYieldsPartialAnswer) {
  shards_[1]->Shutdown();
  auto client = service::Client::Connect("127.0.0.1", coordinator_->port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().AttackOne(3, 1);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().code, service::ResponseCode::kOk)
      << response.value().error;
  ExpectPartial(response.value().result, 1, "INTERNAL");
}

TEST_F(PartialDegradationTest, BusyShardYieldsPartialAnswerWithBusyCode) {
  // Saturate shard 0: its single worker holds a long sleep and its
  // one-slot queue holds another, so the coordinator's scatter sheds.
  std::thread holder([port = shards_[0]->port()] {
    auto c = service::Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(c.ok());
    auto r = c.value().Sleep(1500.0);
    ASSERT_TRUE(r.ok());
  });
  std::thread filler([port = shards_[0]->port()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto c = service::Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(c.ok());
    auto r = c.value().Sleep(1500.0);
    ASSERT_TRUE(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  auto client = service::Client::Connect("127.0.0.1", coordinator_->port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().AttackOne(3, 1);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().code, service::ResponseCode::kOk)
      << response.value().error;
  ExpectPartial(response.value().result, 0, "BUSY");
  holder.join();
  filler.join();
}

TEST_F(PartialDegradationTest, CoordinatorStatsAggregateShards) {
  auto client = service::Client::Connect("127.0.0.1", coordinator_->port());
  ASSERT_TRUE(client.ok());
  // Put one request through so the windows are not all empty.
  auto warm = client.value().AttackOne(0, 1);
  ASSERT_TRUE(warm.ok());
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().code, service::ResponseCode::kOk)
      << stats.value().error;
  const service::JsonValue& result = stats.value().result;
  const service::JsonValue* shards = result.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 2u);
  for (const service::JsonValue& entry : shards->items()) {
    EXPECT_TRUE(entry.GetBool("ok", false));
    EXPECT_NE(entry.Find("stats"), nullptr);
  }
  const service::JsonValue* aggregate = result.Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->GetInt("num_shards", -1), 2);
  EXPECT_EQ(aggregate->GetInt("shards_ok", -1), 2);
  // Honest coverage: every window row reports the min/max covered seconds
  // across shards rather than silently summing mismatched windows.
  const service::JsonValue* windows = aggregate->Find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_FALSE(windows->items().empty());
  for (const service::JsonValue& w : windows->items()) {
    EXPECT_GE(w.GetDouble("max_window_sec", -1.0),
              w.GetDouble("min_window_sec", 1e18) - 1e-9);
    EXPECT_EQ(w.GetInt("shards_reporting", -1), 2);
  }

  auto health = client.value().Health();
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health.value().code, service::ResponseCode::kOk);
  const service::JsonValue* shard_health = health.value().result.Find("shards");
  ASSERT_NE(shard_health, nullptr);
  EXPECT_EQ(shard_health->items().size(), 2u);
}

}  // namespace
}  // namespace hinpriv::shard
