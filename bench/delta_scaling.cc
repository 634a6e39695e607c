// Delta-scaling benchmark: measures the cost of keeping the attack's warm
// state (candidate index and profile rows, match-cache validity) current
// while the auxiliary network grows, against the alternative of rebuilding
// everything from scratch after every batch.
//
// At the paper's crawl size (2,320,895 t.qq users, Section 6.1) each
// growth batch touches well under 1% of the vertex set, so the incremental
// path — GraphBuilder::PrepareDelta and CommitDelta into the graph's
// copy-on-write overlay (only the touched adjacency runs are rewritten)
// followed by Dehin::ApplyAuxDelta (O(|delta| log B) index maintenance,
// epoch-scoped cache invalidation) — should be dramatically cheaper than
// re-running the O(V log V) constructor.
//
// The headline claim this bench pins: the incremental warm-state refresh
// is >= 10x cheaper than a full rebuild for batches <= 1% of V. Each
// batch row also records the graph half of the writer's work in two
// parts: graph_prepare_s, which a server runs while queries keep reading,
// and graph_commit_s, which it runs under its exclusive warm-state hold
// (the refresh runs there too). Every batch runs a differential guard —
// Deanonymize answers from
// the incrementally-maintained Dehin must be bit-identical to a fresh
// one — so the speedup can never come from silently serving stale state.
//
// The committed BENCH_delta_scaling.json comes from the defaults below
// (paper-scale network, 3 batches) in the default RelWithDebInfo build;
// its context block records the host's hardware_concurrency.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "anon/kdd_anonymizer.h"
#include "bench/bench_common.h"
#include "core/dehin.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "synth/growth.h"
#include "synth/planted_target.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace {

using namespace hinpriv;

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  // Like paper_scale: the point of this bench is the paper-scale number,
  // so --aux_users defaults to the crawl size. Flag names match the other
  // benches so CommonBenchContext and sweep scripts work unchanged.
  flags.Define("aux_users", "2320895",
               "users in the auxiliary network (paper: 2,320,895)");
  flags.Define("target_size", "1000",
               "users per published target graph (paper: 1000)");
  flags.Define("seed", "20140324", "rng seed (EDBT 2014 opening day)");
  flags.Define("no_shared_cache", "false",
               "disable the cross-call match cache (Layer 2)");
  flags.Define("density", "0.01", "planted target density");
  flags.Define("batches", "3", "growth batches to apply");
  // The defaults keep each batch's total record count under 1% of V, the
  // regime the 10x speedup floor applies to. Note the edge fractions are
  // relative to E (~10x V on the t.qq substrate), so they sit an order of
  // magnitude below the user fraction.
  flags.Define("new_user_fraction", "0.002",
               "new users per batch, fraction of current users");
  flags.Define("new_edge_fraction", "0.0003",
               "new links per batch, fraction of current links");
  flags.Define("attr_growth_prob", "0.001",
               "per user, probability a growable attribute grows");
  flags.Define("strength_growth_prob", "0.0003",
               "per growable-strength edge, probability the strength grows");
  flags.Define("guard_queries", "64",
               "differential-guard queries per batch (incremental answers "
               "must match a freshly rebuilt attack bit for bit)");
  flags.Define("json", "BENCH_delta_scaling.json",
               "machine-readable results path (empty to skip)");
  bench::ParseFlagsOrDie(&flags, argc, argv);

  const size_t num_users = static_cast<size_t>(flags.GetInt("aux_users"));
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  std::printf("Delta-scaling bench: %zu auxiliary users (paper: "
              "2,320,895)\n\n",
              num_users);
  std::vector<bench::BenchJsonEntry> entries;

  // --- 1. Base dataset + published target --------------------------------
  synth::TqqConfig config = bench::AuxConfigFromFlags(flags);
  WallTimer timer;
  auto dataset = synth::BuildPlantedDataset(
      config, bench::TargetSpecFromFlags(flags, flags.GetDouble("density")),
      synth::GrowthConfig{}, &rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  hin::Graph aux = std::move(dataset.value().auxiliary);
  const double generate_s = timer.Seconds();
  std::printf("generated: %zu vertices, %zu edges in %.1fs\n",
              aux.num_vertices(), aux.num_edges(), generate_s);
  entries.push_back({"generate", generate_s,
                     {{"vertices", static_cast<double>(aux.num_vertices())},
                      {"edges", static_cast<double>(aux.num_edges())}}});

  anon::KddAnonymizer anonymizer;
  auto published = anonymizer.Anonymize(dataset.value().target, &rng);
  if (!published.ok()) {
    std::fprintf(stderr, "anonymize: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  const hin::Graph& target = published.value().graph;

  // --- 2. Warm the incrementally-maintained attack -----------------------
  const core::DehinConfig attack_config = bench::AttackConfig(false, flags);
  timer.Reset();
  core::Dehin dehin(&aux, attack_config);
  const double initial_build_s = timer.Seconds();
  std::printf("initial warm-state build: %.3fs\n", initial_build_s);
  entries.push_back({"initial_build", initial_build_s, {}});

  const size_t guard_queries = std::min<size_t>(
      static_cast<size_t>(flags.GetInt("guard_queries")),
      target.num_vertices());
  // Populate the per-target caches so batch invalidation has real entries
  // to keep or discard (otherwise the epoch machinery is a no-op).
  for (size_t q = 0; q < guard_queries; ++q) {
    (void)dehin.Deanonymize(target, static_cast<hin::VertexId>(q));
  }

  // --- 3. Growth batches: incremental vs full rebuild --------------------
  synth::GrowthConfig growth;
  growth.new_user_fraction = flags.GetDouble("new_user_fraction");
  growth.new_edge_fraction = flags.GetDouble("new_edge_fraction");
  growth.attr_growth_prob = flags.GetDouble("attr_growth_prob");
  growth.strength_growth_prob = flags.GetDouble("strength_growth_prob");
  synth::TqqConfig profile_config = config;

  const size_t batches =
      static_cast<size_t>(std::max<int64_t>(flags.GetInt("batches"), 1));
  util::TablePrinter table(
      {"batch", "|delta|", "prepare_s", "commit_s", "incr_s", "rebuild_s",
       "speedup"});
  double min_speedup = -1.0;
  for (size_t b = 0; b < batches; ++b) {
    auto delta = synth::SampleGrowthDelta(aux, growth, profile_config, &rng);
    if (!delta.ok()) {
      std::fprintf(stderr, "sample batch %zu: %s\n", b,
                   delta.status().ToString().c_str());
      return 1;
    }
    const size_t delta_size = delta.value().size();

    timer.Reset();
    auto prepared = hin::GraphBuilder::PrepareDelta(aux, delta.value());
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare batch %zu: %s\n", b,
                   prepared.status().ToString().c_str());
      return 1;
    }
    const double graph_prepare_s = timer.Seconds();
    timer.Reset();
    if (auto s = hin::GraphBuilder::CommitDelta(&aux, &prepared.value());
        !s.ok()) {
      std::fprintf(stderr, "commit batch %zu: %s\n", b, s.ToString().c_str());
      return 1;
    }
    const double graph_commit_s = timer.Seconds();

    timer.Reset();
    if (auto s = dehin.ApplyAuxDelta(delta.value()); !s.ok()) {
      std::fprintf(stderr, "warm-state batch %zu: %s\n", b,
                   s.ToString().c_str());
      return 1;
    }
    const double incremental_s = timer.Seconds();

    // The alternative this bench prices: throw the warm state away and pay
    // the constructor again (candidate index and rows over the full grown
    // graph). The fresh instance then doubles as the oracle for
    // the differential guard.
    timer.Reset();
    core::Dehin fresh(&aux, attack_config);
    const double rebuild_s = timer.Seconds();
    const double speedup =
        incremental_s > 0 ? rebuild_s / incremental_s : 0.0;
    if (min_speedup < 0 || speedup < min_speedup) min_speedup = speedup;

    size_t guarded = 0;
    for (size_t q = 0; q < guard_queries; ++q) {
      const auto vt = static_cast<hin::VertexId>(q);
      const auto incremental = dehin.Deanonymize(target, vt);
      const auto oracle = fresh.Deanonymize(target, vt);
      if (incremental != oracle) {
        std::fprintf(stderr,
                     "FAIL: differential guard: batch %zu target %u: "
                     "incremental answer diverges from fresh rebuild "
                     "(%zu vs %zu candidates)\n",
                     b, vt, incremental.size(), oracle.size());
        return 1;
      }
      ++guarded;
    }

    std::printf("batch %zu: |delta|=%zu  graph prepare %.4fs commit %.5fs  "
                "incremental %.4fs  rebuild %.3fs  => %.0fx  (%zu guarded "
                "queries identical)\n",
                b, delta_size, graph_prepare_s, graph_commit_s, incremental_s,
                rebuild_s, speedup, guarded);
    table.AddRow({std::to_string(b), std::to_string(delta_size),
                  util::FormatDouble(graph_prepare_s, 4),
                  util::FormatDouble(graph_commit_s, 5),
                  util::FormatDouble(incremental_s, 4),
                  util::FormatDouble(rebuild_s, 3),
                  util::FormatDouble(speedup, 0) + "x"});
    entries.push_back(
        {"batch_" + std::to_string(b),
         incremental_s,
         {{"delta_records", static_cast<double>(delta_size)},
          {"new_vertices",
           static_cast<double>(delta.value().new_vertices.size())},
          {"edge_adds", static_cast<double>(delta.value().edge_adds.size())},
          {"attr_bumps",
           static_cast<double>(delta.value().attr_bumps.size())},
          {"graph_prepare_s", graph_prepare_s},
          {"graph_commit_s", graph_commit_s},
          {"rebuild_s", rebuild_s},
          {"speedup_vs_rebuild", speedup},
          {"guard_queries", static_cast<double>(guarded)}}});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("final: %zu vertices, %zu edges\n", aux.num_vertices(),
              aux.num_edges());

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, entries,
          bench::CommonBenchContext(
              flags,
              {{"batches", flags.GetString("batches")},
               {"new_user_fraction", flags.GetString("new_user_fraction")},
               {"new_edge_fraction", flags.GetString("new_edge_fraction")},
               {"guard_queries", flags.GetString("guard_queries")}}))) {
    return 1;
  }

  if (min_speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: incremental warm-state refresh speedup %.1fx is "
                 "below the 10x floor\n",
                 min_speedup);
    return 1;
  }
  return 0;
}
