// Ablation study over the design choices DESIGN.md calls out:
//
//   * candidate index on/off (same results, different cost),
//   * the cross-call match cache on/off (same results, different cost),
//   * reverse meta paths (in-edge utilization) on/off,
//   * growth-aware vs. time-synchronized matching,
//   * auxiliary growth on/off,
//   * blanket reconfiguration (strip + saturation) on plain KDDA,
//   * the extension defenses (k-degree, edge perturbation) vs. DeHIN.

#include <iostream>
#include <memory>

#include "anon/complete_graph_anonymizer.h"
#include "anon/k_degree_anonymizer.h"
#include "anon/kdd_anonymizer.h"
#include "bench/bench_common.h"
#include "hin/homogenize.h"
#include "eval/metrics.h"
#include "util/random.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace hinpriv;
  util::FlagParser flags;
  bench::DefineCommonFlags(&flags);
  flags.Define("density", "0.01", "target density for all ablations");
  flags.Define("json", "", "also write machine-readable results to this path");
  bench::ParseFlagsOrDie(&flags, argc, argv);

  const double density = flags.GetDouble("density");
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  std::printf("DeHIN ablations (density %.3f, %lld aux users)\n\n", density,
              static_cast<long long>(flags.GetInt("aux_users")));
  util::TablePrinter table({"ablation", "precision%", "reduction%",
                            "attack sec", "prefilter rej%", "cache hit%"});

  anon::KddAnonymizer kdda;
  auto baseline_dataset = eval::BuildExperimentDataset(
      bench::AuxConfigFromFlags(flags),
      bench::TargetSpecFromFlags(flags, density), synth::GrowthConfig{}, kdda,
      /*strip_majority=*/false, &rng);
  if (!baseline_dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 baseline_dataset.status().ToString().c_str());
    return 1;
  }
  const auto& base = baseline_dataset.value();

  std::vector<bench::BenchJsonEntry> json_entries;
  auto run = [&](const std::string& label,
                 const eval::ExperimentDataset& dataset,
                 core::DehinConfig config, int distance) {
    core::Dehin dehin(&dataset.auxiliary, config);
    const auto evaluation = eval::TimedEvaluateAttack(dehin, dataset, distance);
    const auto& metrics = evaluation.metrics;
    table.AddRow({label, bench::Pct(metrics.precision),
                  bench::Pct(metrics.reduction_rate, 3),
                  util::FormatDouble(evaluation.seconds, 2),
                  bench::Pct(metrics.dehin_stats.PrefilterRejectRate()),
                  bench::Pct(metrics.dehin_stats.CacheHitRate())});
    bench::BenchJsonEntry entry;
    entry.name = label;
    entry.real_time_s = evaluation.seconds;
    entry.counters = {
        {"precision", metrics.precision},
        {"reduction_rate", metrics.reduction_rate},
        {"prefilter_reject_rate", metrics.dehin_stats.PrefilterRejectRate()},
        {"cache_hit_rate", metrics.dehin_stats.CacheHitRate()},
    };
    json_entries.push_back(std::move(entry));
  };

  // Baseline: growth-aware, index, out-edges only, distance 1.
  run("baseline (n=1)", base, bench::AttackConfig(false, flags), 1);
  run("baseline (n=2)", base, bench::AttackConfig(false, flags), 2);

  // Candidate index off: identical quality, higher cost.
  {
    core::DehinConfig config = bench::AttackConfig(false, flags);
    config.use_candidate_index = false;
    run("no candidate index", base, config, 1);
  }

  // The shared match cache off, at the distance where it matters: identical
  // quality, different cost.
  {
    core::DehinConfig config = bench::AttackConfig(false, flags);
    config.use_shared_cache = false;
    run("no shared cache (n=2)", base, config, 2);
  }

  // Reverse meta paths: also match in-neighborhoods.
  {
    core::DehinConfig config = bench::AttackConfig(false, flags);
    config.match.use_in_edges = true;
    run("+ in-edge matching", base, config, 1);
  }

  // Blanket reconfiguration on KDDA (Section 6.4).
  {
    util::Rng strip_rng(static_cast<uint64_t>(flags.GetInt("seed")));
    auto stripped = eval::BuildExperimentDataset(
        bench::AuxConfigFromFlags(flags),
        bench::TargetSpecFromFlags(flags, density), synth::GrowthConfig{},
        kdda, /*strip_majority=*/true, &strip_rng);
    if (stripped.ok()) {
      run("blanket reconfigured on KDDA", stripped.value(),
          bench::AttackConfig(true, flags), 1);
    }
  }

  // No growth: the auxiliary equals the time-T0 network, so exact matching
  // is admissible and sharper.
  {
    synth::GrowthConfig no_growth;
    no_growth.new_user_fraction = 0.0;
    no_growth.new_edge_fraction = 0.0;
    no_growth.attr_growth_prob = 0.0;
    no_growth.strength_growth_prob = 0.0;
    util::Rng g_rng(static_cast<uint64_t>(flags.GetInt("seed")));
    auto dataset = eval::BuildExperimentDataset(
        bench::AuxConfigFromFlags(flags),
        bench::TargetSpecFromFlags(flags, density), no_growth, kdda, false,
        &g_rng);
    if (dataset.ok()) {
      run("no growth, growth-aware match", dataset.value(),
          bench::AttackConfig(false, flags), 1);
      core::DehinConfig exact = bench::AttackConfig(false, flags);
      exact.match.growth_aware = false;
      run("no growth, exact match", dataset.value(), exact, 1);
    }
  }

  // Homogeneous-network mode: collapse all four link types into one and
  // re-run — the paper claims DeHIN still works "with slight performance
  // degradation", and the delta against the baseline quantifies exactly
  // how much the heterogeneity information is worth.
  {
    auto homo_target = hin::HomogenizeGraph(base.target);
    auto homo_aux = hin::HomogenizeGraph(base.auxiliary);
    if (homo_target.ok() && homo_aux.ok()) {
      eval::ExperimentDataset homogeneous{
          std::move(homo_aux).value(), std::move(homo_target).value(),
          base.ground_truth, base.target_density};
      core::DehinConfig config = bench::AttackConfig(false, flags);
      config.match.link_types = {0};
      run("homogeneous network (1 link type)", homogeneous, config, 1);
    }
  }

  // Extension defenses under the reconfigured attack.
  {
    std::vector<std::pair<std::string, std::unique_ptr<anon::Anonymizer>>>
        defenses;
    defenses.emplace_back("defense: CGA",
                          std::make_unique<anon::CompleteGraphAnonymizer>());
    defenses.emplace_back("defense: VW-CGA",
                          std::make_unique<anon::VaryingWeightCgaAnonymizer>());
    defenses.emplace_back("defense: k-degree (k=20)",
                          std::make_unique<anon::KDegreeAnonymizer>(20));
    defenses.emplace_back(
        "defense: edge perturbation 10%",
        std::make_unique<anon::EdgePerturbationAnonymizer>(0.1));
    for (const auto& [label, anonymizer] : defenses) {
      util::Rng d_rng(static_cast<uint64_t>(flags.GetInt("seed")));
      auto dataset = eval::BuildExperimentDataset(
          bench::AuxConfigFromFlags(flags),
          bench::TargetSpecFromFlags(flags, density), synth::GrowthConfig{},
          *anonymizer, /*strip_majority=*/true, &d_rng);
      if (dataset.ok()) {
        run(label, dataset.value(), bench::AttackConfig(true, flags), 1);
      }
    }
  }

  table.Print(std::cout);
  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    const auto context = bench::CommonBenchContext(
        flags, {{"density", flags.GetString("density")}});
    if (!bench::WriteBenchJson(json_path, json_entries, context)) return 1;
  }
  std::printf("\nNotes: edge perturbation deletes real links, so it breaks "
              "DeHIN's soundness guarantee (the truth may leave the "
              "candidate set) at a direct utility cost; VW-CGA defends by "
              "destroying all neighborhood signal.\n");
  return 0;
}
