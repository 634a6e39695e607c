// Loopback tests of the live introspection plane: stats/health polled
// DURING load, health transitions under saturation, and the trace
// round-trip (start -> load -> stop -> dump) with request-id-annotated
// spans.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/matchers.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"
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

bool IsKnownHealth(const std::string& health) {
  return health == "ok" || health == "degraded" || health == "shedding";
}

// Stats and health answer while attack load is running, and every poll
// observes counters that only move forward.
TEST(ServiceIntrospectionTest, StatsDuringLoadShowMonotoneCounters) {
  const TestNetwork net = MakeNetwork(100, 21);
  ServerConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  config.dehin = MakeDehinConfig();
  config.introspection_tick_ms = 20;  // fast windows for a short test
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  // Load: two clients hammer attack_one until told to stop.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> issued{0};
  std::vector<std::thread> load;
  for (int c = 0; c < 2; ++c) {
    load.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      hin::VertexId v = static_cast<hin::VertexId>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = client.value().AttackOne(
            v % static_cast<hin::VertexId>(net.anonymized.num_vertices()), 1);
        ASSERT_TRUE(r.ok());
        if (r.value().code == ResponseCode::kOk) {
          issued.fetch_add(1, std::memory_order_relaxed);
        }
        v += 2;
      }
    });
  }

  // Poller: stats + health during the load, asserting monotonicity.
  auto poller = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(poller.ok());
  int64_t last_received = -1;
  double last_uptime = -1.0;
  for (int poll = 0; poll < 10; ++poll) {
    auto stats = poller.value().Stats();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats.value().code, ResponseCode::kOk);
    const JsonValue& result = stats.value().result;

    const int64_t received = result.GetInt("requests_received", -1);
    EXPECT_GE(received, last_received);
    last_received = received;
    const double uptime = result.GetDouble("uptime_sec", -1.0);
    EXPECT_GE(uptime, last_uptime);
    last_uptime = uptime;
    EXPECT_TRUE(IsKnownHealth(result.GetString("health"))) << "poll " << poll;

    const JsonValue* windows = result.Find("windows");
    ASSERT_NE(windows, nullptr);
    ASSERT_EQ(windows->size(), 3u);
    for (const JsonValue& w : windows->items()) {
      EXPECT_GE(w.GetDouble("qps", -1.0), 0.0);
      // Covered seconds track the requested window: the base sample is the
      // newest one at least window_sec old, so coverage may overshoot by up
      // to a tick (plus scheduling slop), never by a whole window.
      EXPECT_GE(w.GetDouble("window_sec", -1.0), 0.0);
      EXPECT_LE(w.GetDouble("window_sec", -1.0),
                w.GetDouble("requested_window_sec", -1.0) + 0.5);
      const JsonValue* latency = w.Find("latency");
      ASSERT_NE(latency, nullptr);
      EXPECT_GE(latency->GetInt("count", -1), 0);
    }

    auto health = poller.value().Health();
    ASSERT_TRUE(health.ok());
    ASSERT_EQ(health.value().code, ResponseCode::kOk);
    EXPECT_TRUE(IsKnownHealth(health.value().result.GetString("health")));
    EXPECT_GE(health.value().result.GetDouble("shed_per_sec", -1.0), 0.0);

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }

  stop.store(true);
  for (std::thread& t : load) t.join();
  const uint64_t total_issued = issued.load();
  ASSERT_GT(total_issued, 0u);

  // Final stats reflect the whole run: the cumulative counter covers every
  // attack, the per-distance breakdown binned them all under d1, and the
  // slow-query log kept a worst-first prefix.
  auto final_stats = poller.value().Stats();
  ASSERT_TRUE(final_stats.ok());
  const JsonValue& result = final_stats.value().result;
  EXPECT_GE(result.GetInt("requests_received", 0),
            static_cast<int64_t>(total_issued));
  EXPECT_GE(result.GetInt("responses_ok", 0),
            static_cast<int64_t>(total_issued));
  const JsonValue* per_distance = result.Find("per_distance");
  ASSERT_NE(per_distance, nullptr);
  const JsonValue* d1 = per_distance->Find("d1");
  ASSERT_NE(d1, nullptr);
  EXPECT_GE(d1->GetInt("attacks", -1), static_cast<int64_t>(total_issued));
  const JsonValue* slow = result.Find("slow_queries");
  ASSERT_NE(slow, nullptr);
  ASSERT_GT(slow->size(), 0u);
  ASSERT_LE(slow->size(), 16u);
  for (const JsonValue& entry : slow->items()) {
    const int64_t total_us = entry.GetInt("total_us", -1);
    EXPECT_GE(total_us, 0);
    EXPECT_GE(entry.GetInt("queue_us", -1), 0);
    EXPECT_GT(entry.GetInt("rid", 0), 0);
  }
  for (size_t i = 1; i < slow->size(); ++i) {
    EXPECT_GE(slow->at(i - 1).GetInt("total_us", -1),
              slow->at(i).GetInt("total_us", -1));
  }

  server.Shutdown();
  EXPECT_TRUE(server.finished());
}

// The introspection tick flips health to "shedding" while the queue is
// saturated and sheds are happening, then recovers once the pressure is
// gone.
TEST(ServiceIntrospectionTest, HealthTransitionsUnderSaturation) {
  const TestNetwork net = MakeNetwork(40, 22);
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.dehin = MakeDehinConfig();
  config.introspection_tick_ms = 10;
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  auto holder = Client::Connect("127.0.0.1", server.port());
  auto filler = Client::Connect("127.0.0.1", server.port());
  auto prober = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(holder.ok() && filler.ok() && prober.ok());

  // Healthy at rest.
  auto at_rest = prober.value().Health();
  ASSERT_TRUE(at_rest.ok());
  EXPECT_EQ(at_rest.value().result.GetString("health"), "ok");

  // Saturate: worker held, queue slot full, then a request that sheds.
  std::thread hold([&] { (void)holder.value().Sleep(700); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread fill([&] { (void)filler.value().Sleep(700); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto shed = prober.value().AttackOne(0, 1);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().code, ResponseCode::kBusy);

  // Health must report shedding while saturated — polled INLINE, so it
  // answers even though the worker and the queue are both occupied.
  bool saw_shedding = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline) {
    auto health = prober.value().Health();
    ASSERT_TRUE(health.ok());
    ASSERT_EQ(health.value().code, ResponseCode::kOk);
    if (health.value().result.GetString("health") == "shedding") {
      saw_shedding = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_shedding);

  hold.join();
  fill.join();

  // Once the sleeps resolve and the shed window ages out, health recovers.
  bool recovered = false;
  const auto recover_deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < recover_deadline) {
    auto health = prober.value().Health();
    ASSERT_TRUE(health.ok());
    if (health.value().result.GetString("health") == "ok") {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(recovered);

  // The stats verb agrees and the shed shows up cumulatively.
  auto stats = prober.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().result.GetInt("shed", -1), 1);

  server.Shutdown();
}

// trace_start -> load -> trace_stop -> trace_dump round-trips a Chrome
// trace whose spans carry the per-request id and whose B/E events balance.
TEST(ServiceIntrospectionTest, TraceRoundTripCarriesRequestIds) {
  const TestNetwork net = MakeNetwork(60, 23);
  ServerConfig config;
  config.num_workers = 2;
  config.dehin = MakeDehinConfig();
  Server server(&net.anonymized, &net.aux, config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto start = client.value().TraceStart();
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start.value().code, ResponseCode::kOk);
  EXPECT_TRUE(start.value().result.GetBool("tracing", false));

  // Tracing state is visible in stats.
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().result.GetBool("tracing", false));

  for (hin::VertexId v = 0; v < 6; ++v) {
    auto r = client.value().AttackOne(v, 1);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().code, ResponseCode::kOk);
  }

  auto stop = client.value().TraceStop();
  ASSERT_TRUE(stop.ok());
  ASSERT_EQ(stop.value().code, ResponseCode::kOk);
  EXPECT_FALSE(stop.value().result.GetBool("tracing", true));
  EXPECT_GT(stop.value().result.GetInt("events", 0), 0);

  auto dump = client.value().TraceDump();
  ASSERT_TRUE(dump.ok());
  ASSERT_EQ(dump.value().code, ResponseCode::kOk);
  const std::string trace_text = dump.value().result.GetString("trace");
  ASSERT_FALSE(trace_text.empty());

  auto trace = JsonValue::Parse(trace_text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);

  size_t begins = 0;
  size_t ends = 0;
  size_t rid_annotated_requests = 0;
  for (const JsonValue& event : events->items()) {
    const std::string ph = event.GetString("ph");
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "B" && event.GetString("name") == "service/handle_request") {
      const JsonValue* args = event.Find("args");
      if (args != nullptr && args->GetInt("rid", 0) > 0) {
        ++rid_annotated_requests;
      }
    }
  }
  EXPECT_EQ(begins, ends);  // exporter drops orphaned opens
  // Every traced attack ran under its admission-assigned request id.
  EXPECT_GE(rid_annotated_requests, 6u);

  server.Shutdown();
}

}  // namespace
}  // namespace hinpriv::service
