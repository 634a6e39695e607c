#include "served.h"

#include <atomic>
#include <cstdio>
#include <future>
#include <utility>

#include "hin/io.h"
#include "host.h"

namespace perfbench {

namespace hp = hinpriv;

hp::service::ServerConfig ServerConfigFor(int max_distance) {
  hp::service::ServerConfig config;
  config.num_workers = kServerWorkers;
  config.default_max_distance = max_distance;
  config.dehin = AttackConfig(max_distance);
  return config;
}

Reply Attack(hp::service::Client* client, hp::hin::VertexId target,
             int max_distance) {
  Reply reply;
  auto response = client->AttackOne(target, max_distance);
  if (!response.ok()) {
    reply.error = response.status().ToString();
    return reply;
  }
  if (response.value().code != hp::service::ResponseCode::kOk) {
    reply.error = std::string(ResponseCodeName(response.value().code)) +
                  ": " + response.value().error;
    return reply;
  }
  reply.ok = true;
  reply.answer = Decode(response.value().result);
  return reply;
}

void Count(const Reply& reply, const Answer& expected, Outcome* outcome) {
  ++outcome->attempted;
  if (!reply.ok) {
    // Failures are not expected on any workload; report the first.
    static std::atomic<bool> reported{false};
    if (!reported.exchange(true)) {
      std::fprintf(stderr, "perfbench: attack_one failed: %s\n",
                   reply.error.c_str());
    }
    ++outcome->failed;
  } else if (!reply.answer || !(*reply.answer == expected)) {
    ++outcome->failed;
    ++outcome->mismatches;
  }
}

hp::util::Result<SetupResult> SetUpServed(
    const std::string& target_path, const std::string& aux_path,
    bool mutable_aux, hp::hin::VertexId first, const Answer& first_answer,
    Outcome* outcome) {
  SetupResult result;
  for (int i = 0; i < kRestarts; ++i) {
    result.served.reset();  // the previous set-up stops before timing
    ResetPeakRss();         // peak_rss_mb covers the last set-up on
    const Clock::time_point setup = Clock::now();
    std::unique_ptr<Served> served;
    {
      const Clock::time_point load = Clock::now();
      auto target = hp::hin::LoadGraphAuto(target_path);
      if (!target.ok()) return target.status();
      auto aux = hp::hin::LoadGraphAuto(aux_path);
      if (!aux.ok()) return aux.status();
      served = std::make_unique<Served>(std::move(target.value()),
                                        std::move(aux.value()));
      result.load_s.push_back(SecondsSince(load));
    }
    hp::service::ServerConfig config = ServerConfigFor(1);
    if (mutable_aux) config.mutable_aux = &served->aux;
    served->server = std::make_unique<hp::service::Server>(
        &served->target, &served->aux, std::move(config));
    HINPRIV_RETURN_IF_ERROR(served->server->Start());
    auto client =
        hp::service::Client::Connect("127.0.0.1", served->server->port());
    if (!client.ok()) return client.status();
    served->client = std::move(client.value());
    const Reply reply = Attack(&served->client, first, 1);
    result.seconds.push_back(SecondsSince(setup));
    Count(reply, first_answer, outcome);
    result.served = std::move(served);
  }
  return result;
}

double ServiceFloorSeconds(hp::service::Client* client, int requests,
                           Outcome* outcome) {
  std::vector<double> seconds;
  for (int i = 0; i < requests; ++i) {
    const Clock::time_point sent = Clock::now();
    auto response = client->Sleep(0.0);
    seconds.push_back(SecondsSince(sent));
    ++outcome->attempted;
    if (!response.ok() ||
        response.value().code != hp::service::ResponseCode::kOk) {
      ++outcome->failed;
    }
  }
  return Median(seconds);
}

hp::util::Result<std::vector<hp::hin::VertexId>> InProcessAttack::Run(
    hp::hin::VertexId vt, int max_distance) {
  std::promise<hp::util::Result<std::vector<hp::hin::VertexId>>> done;
  auto answer = done.get_future();
  pool_.Submit(
      [&] {
        hp::core::Dehin::ParallelScanOptions scan;
        scan.executor = &pool_;
        done.set_value(
            dehin_->DeanonymizeParallel(*target_, vt, max_distance, scan));
      },
      hp::exec::Priority::kHigh);
  return answer.get();
}

void InProcessPass(InProcessAttack* attack,
                   const std::vector<hp::hin::VertexId>& order,
                   const Answers& expected, int max_distance,
                   PerTarget* latency, Outcome* outcome) {
  for (hp::hin::VertexId vt : order) {
    const Clock::time_point start = Clock::now();
    auto candidates = attack->Run(vt, max_distance);
    latency->Record(vt, SecondsSince(start));
    Reply reply;
    reply.ok = candidates.ok();
    if (reply.ok) reply.answer = Encode(candidates.value());
    Count(reply, expected[vt], outcome);
  }
}

}  // namespace perfbench
