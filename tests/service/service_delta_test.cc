// End-to-end tests of the apply_delta verb: a real Server on a loopback
// socket absorbing growth batches from a hinpriv-delta stream file while
// clients query it. The suite name contains "Service" so the CI TSan job
// picks it up — the concurrency test below is exactly the race the
// warm-state lock exists for.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/matchers.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "hin/snapshot.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/random.h"

namespace hinpriv::service {
namespace {

struct TestNetwork {
  hin::Graph aux;
  hin::Graph anonymized;
  std::vector<hin::VertexId> to_original;
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
                     std::move(published.value().graph),
                     std::move(published.value().to_original)};
}

core::DehinConfig MakeDehinConfig() {
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  config.max_distance = 1;
  return config;
}

hin::Graph HeapCopy(const hin::Graph& source) {
  hin::GraphBuilder builder(source.schema());
  EXPECT_TRUE(hin::CopyVerticesWithAttributes(source, &builder).ok());
  EXPECT_TRUE(hin::CopyEdges(source, &builder).ok());
  auto copy = std::move(builder).Build();
  EXPECT_TRUE(copy.ok());
  return std::move(copy).value();
}

// Samples `batches` chained growth deltas against a copy of `base` and
// writes them as a delta stream to a per-test temp file. `grown` is the
// copy with every batch applied, for oracle checks.
struct DeltaStream {
  std::string path;
  hin::Graph grown;
};

synth::GrowthConfig SmallBatches() {
  synth::GrowthConfig growth;
  growth.new_user_fraction = 0.02;
  growth.new_edge_fraction = 0.01;
  return growth;
}

DeltaStream WriteDeltaStream(const hin::Graph& base, size_t batches,
                             uint64_t seed,
                             const synth::GrowthConfig& growth = SmallBatches(),
                             const std::string& suffix = "") {
  hin::Graph preview = HeapCopy(base);
  util::Rng rng(seed);
  std::vector<hin::GraphDelta> stream;
  for (size_t b = 0; b < batches; ++b) {
    auto delta =
        synth::SampleGrowthDelta(preview, growth, synth::TqqConfig{}, &rng);
    EXPECT_TRUE(delta.ok());
    EXPECT_TRUE(
        hin::GraphBuilder::ApplyDelta(&preview, delta.value()).ok());
    stream.push_back(std::move(delta).value());
  }
  const std::string path =
      testing::TempDir() + "/hinpriv_service_delta_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      suffix + ".deltas";
  EXPECT_TRUE(hin::SaveDeltaStreamToFile(stream, path).ok());
  return DeltaStream{path, std::move(preview)};
}

// Every served answer equals a cold attack over `grown`.
void ExpectServedMatchesCold(Client* client, const hin::Graph& target,
                             const hin::Graph& grown) {
  core::Dehin fresh(&grown, MakeDehinConfig());
  for (hin::VertexId v = 0; v < target.num_vertices(); ++v) {
    auto served = client->AttackOne(v, 1);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served.value().code, ResponseCode::kOk);
    const auto expected = fresh.Deanonymize(target, v, 1);
    const JsonValue* candidates = served.value().result.Find("candidates");
    ASSERT_NE(candidates, nullptr);
    ASSERT_EQ(candidates->size(), expected.size()) << "vertex " << v;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(candidates->at(i).AsInt(-1),
                static_cast<int64_t>(expected[i]));
    }
  }
}

TEST(ServiceDeltaTest, ApplyDeltaGrowsAuxAndAnswersTrackFreshAttack) {
  TestNetwork net = MakeNetwork(100, 31);
  DeltaStream stream = WriteDeltaStream(net.aux, 2, 32);
  const std::string& path = stream.path;
  const hin::Graph& grown = stream.grown;

  ServerConfig config;
  config.num_workers = 2;
  config.queue_capacity = 32;
  config.default_max_distance = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &net.aux;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Prime the warm state so the delta has live cache entries to retire.
  for (hin::VertexId v = 0; v < 8; ++v) {
    auto warmup = client.value().AttackOne(v, 1);
    ASSERT_TRUE(warmup.ok());
    ASSERT_EQ(warmup.value().code, ResponseCode::kOk);
  }

  auto response = client.value().ApplyDelta(path);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().code, ResponseCode::kOk)
      << response.value().error;
  const JsonValue& result = response.value().result;
  EXPECT_EQ(result.GetInt("batches_applied", -1), 2);
  EXPECT_EQ(result.GetInt("num_vertices", -1),
            static_cast<int64_t>(grown.num_vertices()));
  EXPECT_EQ(result.GetInt("num_edges", -1),
            static_cast<int64_t>(grown.num_edges()));
  EXPECT_EQ(net.aux.num_vertices(), grown.num_vertices());
  EXPECT_EQ(net.aux.num_edges(), grown.num_edges());

  // Served answers after the delta must equal a cold attack over the same
  // grown auxiliary — the service counterpart of the bench's differential
  // guard.
  ExpectServedMatchesCold(&client.value(), net.anonymized, grown);

  server.Shutdown();
  std::remove(path.c_str());
}

TEST(ServiceDeltaTest, RejectedWithoutMutableAux) {
  TestNetwork net = MakeNetwork(60, 33);
  const std::string path = WriteDeltaStream(net.aux, 1, 34).path;

  ServerConfig config;
  config.num_workers = 1;
  config.dehin = MakeDehinConfig();
  // mutable_aux left null: the operator did not opt the server into
  // streaming growth, so the verb must refuse rather than mutate.
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().ApplyDelta(path);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, ResponseCode::kInvalidRequest);
  server.Shutdown();
  std::remove(path.c_str());
}

// A server whose auxiliary is a mapped snapshot grows like a heap one:
// the batches land in the graph's overlay, and the answers equal a cold
// attack over the grown graph.
TEST(ServiceDeltaTest, MappedSnapshotGrowsLikeColdStart) {
  TestNetwork net = MakeNetwork(60, 35);
  const std::string snap_path =
      testing::TempDir() + "/hinpriv_service_delta_mapped.snap";
  ASSERT_TRUE(hin::SaveGraphSnapshot(net.aux, snap_path).ok());
  auto mapped = hin::LoadGraphSnapshot(snap_path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped.value().is_mapped());
  DeltaStream stream = WriteDeltaStream(net.aux, 2, 36);

  ServerConfig config;
  config.num_workers = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &mapped.value();
  Server server(&net.anonymized, &mapped.value(), config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().ApplyDelta(stream.path);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().code, ResponseCode::kOk)
      << response.value().error;
  EXPECT_EQ(response.value().result.GetInt("batches_applied", -1), 2);
  EXPECT_EQ(mapped.value().num_vertices(), stream.grown.num_vertices());
  EXPECT_EQ(mapped.value().num_edges(), stream.grown.num_edges());
  ExpectServedMatchesCold(&client.value(), net.anonymized, stream.grown);
  server.Shutdown();
  std::remove(stream.path.c_str());
  std::remove(snap_path.c_str());
}

// The growth fields of `payload` (a stats or health result).
struct Growth {
  int64_t epoch, runs, edges, compactions;
};

Growth GrowthOf(const JsonValue& payload) {
  return Growth{payload.GetInt("delta_epoch", -1),
                payload.GetInt("overlay_patched_runs", -1),
                payload.GetInt("overlay_patched_edges", -1),
                payload.GetInt("overlay_compactions", -1)};
}

// The value of an unlabeled sample `name` in Prometheus text, or -1.
int64_t PrometheusSample(const std::string& text, const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  const size_t at = text.find(prefix);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + prefix.size()));
}

// stats, health and Prometheus report the delta epoch and the overlay's
// size under one set of names, pinned to a replica graph grown by the
// same batches: first after two small batches (patched runs, no
// compaction), then after one batch large enough to force a compaction.
TEST(ServiceDeltaTest, GrowthFieldsTrackEpochAndOverlay) {
  TestNetwork net = MakeNetwork(80, 41);
  hin::Graph replica = HeapCopy(net.aux);
  ServerConfig config;
  config.num_workers = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &net.aux;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto expect_growth = [&](int64_t epoch) {
    const hin::Graph::OverlayStats overlay = replica.overlay_stats();
    auto stats = client.value().Stats();
    auto health = client.value().Health();
    auto metrics = client.value().Metrics();
    ASSERT_TRUE(stats.ok() && health.ok() && metrics.ok());
    for (const Growth& g : {GrowthOf(stats.value().result),
                            GrowthOf(health.value().result)}) {
      EXPECT_EQ(g.epoch, epoch);
      EXPECT_EQ(g.runs, static_cast<int64_t>(overlay.patched_runs));
      EXPECT_EQ(g.edges, static_cast<int64_t>(overlay.patched_edges));
      EXPECT_EQ(g.compactions, static_cast<int64_t>(overlay.compactions));
    }
    const std::string text = metrics.value().result.GetString("text");
    EXPECT_EQ(PrometheusSample(text, "hinpriv_service_delta_epoch"), epoch);
    EXPECT_EQ(PrometheusSample(text, "hinpriv_service_overlay_patched_runs"),
              static_cast<int64_t>(overlay.patched_runs));
    EXPECT_EQ(PrometheusSample(text, "hinpriv_service_overlay_patched_edges"),
              static_cast<int64_t>(overlay.patched_edges));
    EXPECT_EQ(PrometheusSample(text, "hinpriv_service_overlay_compactions"),
              static_cast<int64_t>(overlay.compactions));
  };
  auto apply = [&](const DeltaStream& stream) {
    auto batches = hin::LoadDeltaStreamFromFile(stream.path);
    ASSERT_TRUE(batches.ok());
    for (const hin::GraphDelta& delta : batches.value()) {
      ASSERT_TRUE(hin::GraphBuilder::ApplyDelta(&replica, delta).ok());
    }
    auto response = client.value().ApplyDelta(stream.path);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().code, ResponseCode::kOk)
        << response.value().error;
    std::remove(stream.path.c_str());
  };

  expect_growth(0);
  synth::GrowthConfig tiny;
  tiny.new_user_fraction = 0.02;
  tiny.new_edge_fraction = 0.002;
  tiny.strength_growth_prob = 0.0;
  apply(WriteDeltaStream(net.aux, 2, 42, tiny, "_small"));
  ASSERT_GT(replica.overlay_stats().patched_runs, 0u);
  ASSERT_EQ(replica.overlay_stats().compactions, 0u);
  expect_growth(2);

  synth::GrowthConfig huge;
  huge.new_edge_fraction = 0.5;
  apply(WriteDeltaStream(net.aux, 1, 43, huge, "_large"));
  ASSERT_GT(replica.overlay_stats().compactions, 0u);
  expect_growth(3);
  server.Shutdown();
}

TEST(ServiceDeltaTest, RejectedOnUnreadableStream) {
  TestNetwork net = MakeNetwork(60, 37);
  ServerConfig config;
  config.num_workers = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &net.aux;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().ApplyDelta(testing::TempDir() +
                                            "/does_not_exist.deltas");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, ResponseCode::kInvalidRequest);
  server.Shutdown();
}

// A hostile section count must not throw out of the stream loader on a
// worker: the pool would swallow the exception, the client would never
// get a reply, and Shutdown() would wait forever for the drain task. It
// comes back as INVALID_REQUEST, and the server keeps serving and drains.
TEST(ServiceDeltaTest, HostileSectionCountIsInvalidRequest) {
  TestNetwork net = MakeNetwork(60, 40);
  const std::string path =
      testing::TempDir() + "/hinpriv_service_delta_hostile.deltas";
  {
    std::ofstream out(path);
    out << "hinpriv-delta 1\nbatch 60\nnew_vertices 18446744073709551615\n";
  }
  ServerConfig config;
  config.num_workers = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &net.aux;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client.value().ApplyDelta(path);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().code, ResponseCode::kInvalidRequest)
      << response.value().error;
  auto attack = client.value().AttackOne(0, 1);
  ASSERT_TRUE(attack.ok());
  EXPECT_EQ(attack.value().code, ResponseCode::kOk);
  server.Shutdown();
  EXPECT_TRUE(server.finished());
  std::remove(path.c_str());
}

// The race the warm-state lock exists for: apply_delta mutating the aux
// graph + Dehin warm state while attack_one queries are in flight on the
// worker pool. Under TSan this is the proof there is no unsynchronized
// access; under any build the queries must all complete with kOk (batch
// boundaries are the only commit points, so no query ever observes a
// half-applied batch).
TEST(ServiceDeltaTest, ApplyDeltaRacesInFlightQueries) {
  TestNetwork net = MakeNetwork(80, 38);
  const std::string path = WriteDeltaStream(net.aux, 4, 39).path;

  ServerConfig config;
  config.num_workers = 3;
  config.queue_capacity = 64;
  config.default_max_distance = 1;
  config.dehin = MakeDehinConfig();
  config.mutable_aux = &net.aux;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kQueryThreads = 2;
  std::vector<std::string> failures(kQueryThreads + 1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto client = Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      failures[0] = "connect: " + client.status().ToString();
      return;
    }
    auto response = client.value().ApplyDelta(path);
    if (!response.ok() || response.value().code != ResponseCode::kOk) {
      failures[0] = "apply_delta failed";
    }
  });
  for (size_t t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[t + 1] = "connect: " + client.status().ToString();
        return;
      }
      for (size_t round = 0; round < 3; ++round) {
        for (hin::VertexId v = static_cast<hin::VertexId>(t);
             v < net.anonymized.num_vertices();
             v += static_cast<hin::VertexId>(kQueryThreads)) {
          auto response = client.value().AttackOne(v, 1);
          if (!response.ok() ||
              response.value().code != ResponseCode::kOk) {
            failures[t + 1] =
                "attack_one(" + std::to_string(v) + ") failed mid-delta";
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }

  // Post-race differential check against a cold attack on the grown graph.
  core::Dehin fresh(&net.aux, MakeDehinConfig());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (hin::VertexId v = 0; v < 16; ++v) {
    auto served = client.value().AttackOne(v, 1);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served.value().code, ResponseCode::kOk);
    const auto expected = fresh.Deanonymize(net.anonymized, v, 1);
    const JsonValue* candidates = served.value().result.Find("candidates");
    ASSERT_NE(candidates, nullptr);
    ASSERT_EQ(candidates->size(), expected.size()) << "vertex " << v;
  }
  server.Shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hinpriv::service
