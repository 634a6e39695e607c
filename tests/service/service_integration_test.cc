// End-to-end test of the resident attack service: a real Server on a
// loopback socket, concurrent clients, and parity against the batch
// evaluator on the same anonymized/auxiliary pair.

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/matchers.h"
#include "core/privacy_risk.h"
#include "core/signature.h"
#include "eval/metrics.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
#include "synth/tqq_generator.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::service {
namespace {

struct TestNetwork {
  hin::Graph aux;
  hin::Graph anonymized;
  std::vector<hin::VertexId> to_original;
};

// A synthetic t.qq-like network and its published (strength-bucketed,
// id-permuted) counterpart — the same kind of pair the batch experiments
// attack.
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

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServiceIntegrationTest, ConcurrentQueriesMatchBatchEvaluator) {
  const TestNetwork net = MakeNetwork(120, 11);
  ServerConfig config;
  config.num_workers = 3;
  config.queue_capacity = 64;
  config.max_batch = 4;
  config.default_max_distance = 1;
  config.dehin = MakeDehinConfig();
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // The server owns a pool of num_workers, and with more than one worker
  // attack_one runs the intra-query parallel scan.
  {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto stats = client.value().Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().result.GetInt("num_workers", -1), 3);
    EXPECT_TRUE(stats.value().result.GetBool("parallel_scan", false));
  }

  // Reference answers from the library the batch evaluator uses.
  core::Dehin reference(&net.aux, MakeDehinConfig());
  const size_t num_targets = net.anonymized.num_vertices();

  // Three concurrent clients split the targets; each compares the served
  // candidate set with a direct library call on the same pair.
  constexpr size_t kClients = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[c] = "connect: " + client.status().ToString();
        return;
      }
      for (size_t v = c; v < num_targets; v += kClients) {
        auto response =
            client.value().AttackOne(static_cast<hin::VertexId>(v), 1);
        if (!response.ok() ||
            response.value().code != ResponseCode::kOk) {
          failures[c] = "attack_one(" + std::to_string(v) + ") failed";
          return;
        }
        const auto expected = reference.Deanonymize(
            net.anonymized, static_cast<hin::VertexId>(v), 1);
        const JsonValue& result = response.value().result;
        if (result.GetInt("num_candidates", -1) !=
            static_cast<int64_t>(expected.size())) {
          failures[c] = "candidate count mismatch at " + std::to_string(v);
          return;
        }
        const JsonValue* candidates = result.Find("candidates");
        if (candidates == nullptr ||
            candidates->size() != expected.size()) {
          failures[c] = "candidate list mismatch at " + std::to_string(v);
          return;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (candidates->at(i).AsInt(-1) !=
              static_cast<int64_t>(expected[i])) {
            failures[c] = "candidate value mismatch at " + std::to_string(v);
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << failures[c];
  }

  // The aggregate the service implies must agree with the batch evaluator
  // run on the identical pair: every candidate set matched one-for-one
  // above, so spot-check the evaluator's own numbers for drift.
  const eval::AttackMetrics batch =
      eval::EvaluateAttack(reference, net.anonymized, net.to_original, 1);
  EXPECT_EQ(batch.num_targets, num_targets);
  EXPECT_EQ(batch.num_evaluated, num_targets);
  EXPECT_FALSE(batch.interrupted);

  // Network risk parity: the service computes R(T) with the audit's
  // signature configuration; recompute it directly.
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto risk_response = client.value().NetworkRisk(1);
  ASSERT_TRUE(risk_response.ok());
  ASSERT_EQ(risk_response.value().code, ResponseCode::kOk);
  core::SignatureOptions sig_options;
  const size_t num_attrs = net.anonymized.num_attributes(0);
  for (hin::AttributeId a = 0; a < num_attrs; ++a) {
    sig_options.attributes.push_back(a);
  }
  sig_options.link_types = core::AllLinkTypes(net.anonymized);
  const auto signatures =
      core::ComputeSignatures(net.anonymized, sig_options, 1);
  ASSERT_FALSE(signatures.empty());
  const double expected_risk = core::DatasetRisk(signatures.back());
  EXPECT_NEAR(risk_response.value().result.GetDouble("network_risk", -1.0),
              expected_risk, 1e-9);

  // Per-entity risk for a few vertices against PerTupleRisk.
  const std::vector<double> per_tuple = core::PerTupleRisk(signatures.back());
  for (hin::VertexId v : {hin::VertexId{0}, hin::VertexId{7},
                          static_cast<hin::VertexId>(num_targets - 1)}) {
    auto entity = client.value().EntityRisk(v, 1);
    ASSERT_TRUE(entity.ok());
    ASSERT_EQ(entity.value().code, ResponseCode::kOk);
    EXPECT_NEAR(entity.value().result.GetDouble("risk", -1.0), per_tuple[v],
                1e-9);
  }

  server.Shutdown();
  EXPECT_TRUE(server.finished());
}

TEST(ServiceIntegrationTest, SaturatedQueueShedsWithBusy) {
  const TestNetwork net = MakeNetwork(40, 12);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.max_batch = 1;
  config.dehin = MakeDehinConfig();
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker with a long sleep, then fill the one queue
  // slot with another; the third request must be shed immediately with
  // BUSY — never blocked.
  auto holder = Client::Connect("127.0.0.1", server.port());
  auto filler = Client::Connect("127.0.0.1", server.port());
  auto prober = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(holder.ok() && filler.ok() && prober.ok());

  std::thread hold([&] {
    auto r = holder.value().Sleep(600);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().code, ResponseCode::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread fill([&] {
    auto r = filler.value().Sleep(600);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().code, ResponseCode::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto probe_start = std::chrono::steady_clock::now();
  auto probe = prober.value().AttackOne(0, 1);
  const auto probe_elapsed = std::chrono::steady_clock::now() - probe_start;
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().code, ResponseCode::kBusy);
  // Shedding is immediate: the reply must come back long before the
  // sleeps holding the worker and the queue slot resolve.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                probe_elapsed)
                .count(),
            500);

  // Admin verbs bypass the admission queue entirely: stats answers OK on
  // the admin thread even while the worker and queue are both occupied.
  const auto stats_start = std::chrono::steady_clock::now();
  auto stats = prober.value().Stats();
  const auto stats_elapsed = std::chrono::steady_clock::now() - stats_start;
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().code, ResponseCode::kOk);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                stats_elapsed)
                .count(),
            500);

  hold.join();
  fill.join();
  server.Shutdown();
}

TEST(ServiceIntegrationTest, QueuedDeadlineExpiresWithoutCrashing) {
  const TestNetwork net = MakeNetwork(40, 13);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  config.dehin = MakeDehinConfig();
  const testing_support::TempPath metrics("metrics.json");
  const std::string& metrics_path = metrics.path();
  config.metrics_json_path = metrics_path;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  auto holder = Client::Connect("127.0.0.1", server.port());
  auto victim = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(holder.ok() && victim.ok());

  // Hold the only worker for 400ms, then queue an attack with a 1ms
  // deadline: by the time a worker picks it up the deadline (measured
  // from admission) has long passed, so it must come back
  // DEADLINE_EXCEEDED without running the attack or crashing.
  std::thread hold([&] {
    auto r = holder.value().Sleep(400);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().code, ResponseCode::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto late = victim.value().AttackOne(0, 1, /*deadline_ms=*/1.0);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().code, ResponseCode::kDeadlineExceeded);
  hold.join();

  // The server is still healthy after the deadline miss.
  auto ok_again = victim.value().AttackOne(0, 1);
  ASSERT_TRUE(ok_again.ok());
  EXPECT_EQ(ok_again.value().code, ResponseCode::kOk);

  // Graceful shutdown flushes a final hinpriv-metrics-v1 snapshot with
  // live service/* counters.
  server.Shutdown();
  ASSERT_TRUE(server.finished());
  const std::string snapshot_text = ReadWholeFile(metrics_path);
  ASSERT_FALSE(snapshot_text.empty());
  auto snapshot = JsonValue::Parse(snapshot_text);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().GetString("schema"), "hinpriv-metrics-v1");
  const JsonValue* counters = snapshot.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->GetInt("service/requests_received", 0), 0);
  EXPECT_GT(counters->GetInt("service/responses_ok", 0), 0);
  EXPECT_GT(counters->GetInt("service/deadline_exceeded", 0), 0);
}

TEST(ServiceIntegrationTest, CancelledTokenStopsDehinWithoutPoisoningCache) {
  const TestNetwork net = MakeNetwork(60, 14);
  core::Dehin dehin(&net.aux, MakeDehinConfig());

  // A token cancelled up front stops the attack dead-on-arrival.
  util::CancelToken cancelled;
  cancelled.Cancel();
  auto stopped = dehin.Deanonymize(net.anonymized, 0, 1, &cancelled);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), util::Status::Code::kCancelled);

  // An already-expired deadline maps to DeadlineExceeded, not Cancelled.
  util::CancelToken expired;
  expired.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(5));
  auto late = dehin.Deanonymize(net.anonymized, 0, 1, &expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::Status::Code::kDeadlineExceeded);

  // After aborted calls, an unrestricted run still returns the exact
  // uncancelled answer — aborted work never contaminated the shared cache.
  core::Dehin fresh(&net.aux, MakeDehinConfig());
  for (hin::VertexId v = 0; v < net.anonymized.num_vertices(); ++v) {
    auto with_token = dehin.Deanonymize(net.anonymized, v, 1, nullptr);
    ASSERT_TRUE(with_token.ok());
    EXPECT_EQ(with_token.value(), fresh.Deanonymize(net.anonymized, v, 1))
        << "divergence at vertex " << v;
  }
}

TEST(ServiceIntegrationTest, ShutdownWithIdleConnectionsCompletes) {
  const TestNetwork net = MakeNetwork(30, 15);
  ServerConfig config;
  config.num_workers = 2;
  config.dehin = MakeDehinConfig();
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());
  // Idle connections must not wedge the drain.
  auto a = Client::Connect("127.0.0.1", server.port());
  auto b = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok() && b.ok());
  auto warm = a.value().Stats();
  ASSERT_TRUE(warm.ok());
  server.Shutdown();
  EXPECT_TRUE(server.finished());
}

// A handler whose attack_one throws. The pool swallows task exceptions, so
// the front-end itself must answer INTERNAL and count the drain task
// down; otherwise the client never hears back and Shutdown() waits for
// the task forever.
class ThrowingHandler : public Handler {
 public:
  Response AttackOne(hin::VertexId, int, const util::CancelToken&) override {
    throw std::runtime_error("handler failure");
  }
  Response ApplyDelta(const std::string&, const util::CancelToken&) override {
    return ErrorResponse(ResponseCode::kInvalidRequest, "read-only handler");
  }
  void AppendStats(JsonValue*) override {}
};

TEST(ServiceIntegrationTest, ThrowingHandlerAnswersInternalAndDrains) {
  const TestNetwork net = MakeNetwork(30, 16);
  ServerConfig config;
  config.num_workers = 1;
  Server server(&net.anonymized, std::make_unique<ThrowingHandler>(),
                config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto response = client.value().AttackOne(0, 1);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().code, ResponseCode::kInternal);
    EXPECT_NE(response.value().error.find("handler failure"),
              std::string::npos)
        << response.value().error;
  }
  server.Shutdown();
  EXPECT_TRUE(server.finished());
}

}  // namespace
}  // namespace hinpriv::service
