// The resident attack service as serve_d1 and grow_d1 drive it: set-up
// from graph files, the client calls with their answer checks, and the
// in-process mirror of the server's attack call used to split served
// latency into core and service time.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/dehin.h"
#include "exec/executor.h"
#include "hin/graph.h"
#include "inputs.h"
#include "service/client.h"
#include "service/server.h"
#include "util/status.h"

namespace perfbench {

// Worker pool of the resident server in both served workloads.
inline constexpr size_t kServerWorkers = 2;

hinpriv::service::ServerConfig ServerConfigFor(int max_distance);

// A started server over graphs loaded from files, plus one client
// connection. Members are destroyed bottom-up: the connection closes,
// then the server drains, then the graphs it points into go.
struct Served {
  Served(hinpriv::hin::Graph target_graph, hinpriv::hin::Graph aux_graph)
      : target(std::move(target_graph)), aux(std::move(aux_graph)) {}

  hinpriv::hin::Graph target;
  hinpriv::hin::Graph aux;
  std::unique_ptr<hinpriv::service::Server> server;
  hinpriv::service::Client client;
};

struct Reply {
  // Transport succeeded and the code is OK.
  bool ok = false;
  std::optional<Answer> answer;
  std::string error;
};

// One attack_one call at depth n.
Reply Attack(hinpriv::service::Client* client, hinpriv::hin::VertexId target,
             int max_distance);

// Counts one attack_one reply against the answer it must equal.
void Count(const Reply& reply, const Answer& expected, Outcome* outcome);

struct SetupResult {
  std::unique_ptr<Served> served;  // the last set-up, left running
  std::vector<double> seconds;     // files on disk to first correct answer
  std::vector<double> load_s;      // hin::LoadGraphAuto of both files
};

// Runs kRestarts set-ups back to back, each from graph files on disk to
// the first answer (checked against `first_answer` for vertex `first`),
// and keeps the last one running. `mutable_aux` enables apply_delta.
hinpriv::util::Result<SetupResult> SetUpServed(
    const std::string& target_path, const std::string& aux_path,
    bool mutable_aux, hinpriv::hin::VertexId first,
    const Answer& first_answer, Outcome* outcome);

// Median client-observed round trip of `requests` zero-length sleep
// calls: the service's own cost per request, with no attack work.
double ServiceFloorSeconds(hinpriv::service::Client* client, int requests,
                           Outcome* outcome);

// The call the server makes for attack_one: DeanonymizeParallel on a
// kServerWorkers pool, issued from one of its workers as the server's
// drain task is, but with no service in front of it.
class InProcessAttack {
 public:
  InProcessAttack(const hinpriv::core::Dehin* dehin,
                  const hinpriv::hin::Graph* target)
      : dehin_(dehin), target_(target), pool_(kServerWorkers) {}

  hinpriv::util::Result<std::vector<hinpriv::hin::VertexId>> Run(
      hinpriv::hin::VertexId vt, int max_distance);

 private:
  const hinpriv::core::Dehin* dehin_;
  const hinpriv::hin::Graph* target_;
  hinpriv::exec::Executor pool_;
};

// One in-process pass over `order`, each call timed into `latency` and
// checked against `expected`.
void InProcessPass(InProcessAttack* attack,
                   const std::vector<hinpriv::hin::VertexId>& order,
                   const Answers& expected, int max_distance,
                   PerTarget* latency, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
