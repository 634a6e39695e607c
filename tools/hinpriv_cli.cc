// hinpriv — command-line front end to the library.
//
//   hinpriv_cli generate  --users=50000 --out=net.graph [--kdd_prefix=dir/]
//   hinpriv_cli anonymize --in=net.graph --scheme=cga --out=anon.graph
//                         --mapping=mapping.tsv
//   hinpriv_cli attack    --target=anon.graph --aux=net.graph
//                         [--mapping=mapping.tsv] [--max_distance=2] [--strip]
//                         [--threads=4] [--metrics-json=m.json]
//                         [--trace-out=run.trace.json]
//   hinpriv_cli grow      --in=net.graph --out=grown.graph
//                         [--delta-out=deltas.hinpriv] [--batches=3]
//                         [--new_user_fraction=0.05] [--seed=7]
//   hinpriv_cli audit     --in=net.graph [--max_distance=3]
//   hinpriv_cli stats     --in=net.graph
//   hinpriv_cli stats     --port=7470 [--watch=2]      # live server stats
//   hinpriv_cli convert   --in=net.graph --out=net.snap [--verify]
//   hinpriv_cli serve     --target=anon.graph --aux=net.snap [--port=7470]
//                         [--workers=4] [--queue_capacity=128]
//                         [--mlock] [--heartbeat_sec=10]
//   hinpriv_cli query     --port=7470 --method=attack_one --target_id=123
//
// Every subcommand exchanges graphs through hin::LoadGraphAuto /
// hin::SaveGraphAuto (text, or HINPRIVS mmap snapshot for a .snap path,
// auto-detected on load); `generate` can additionally emit the KDD Cup
// 2012 three-file layout for tools built against the original release.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "anon/complete_graph_anonymizer.h"
#include "anon/k_degree_anonymizer.h"
#include "anon/kdd_anonymizer.h"
#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/privacy_risk.h"
#include "eval/metrics.h"
#include "eval/parallel_metrics.h"
#include "exec/executor.h"
#include "hin/density.h"
#include "hin/graph_stats.h"
#include "hin/io.h"
#include "hin/projection.h"
#include "hin/snapshot.h"
#include "hin/kdd_loader.h"
#include "hin/tqq_schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/server.h"
#include "service/signal.h"
#include "hin/graph_builder.h"
#include "hin/graph_delta.h"
#include "synth/growth.h"
#include "synth/tqq_generator.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace hinpriv::cli {
namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::printf(
      "hinpriv_cli <command> [flags]\n"
      "commands:\n"
      "  generate   synthesize a t.qq-like network and save it\n"
      "  grow       sample growth batches against a network; saves the\n"
      "             grown graph and a replayable delta stream\n"
      "  anonymize  publish a graph through an anonymization scheme\n"
      "  attack     run DeHIN against a published graph\n"
      "  audit      privacy-risk audit of a graph before publication\n"
      "  stats      structural statistics of a graph, or (--port) live\n"
      "             introspection of a running serve instance\n"
      "  convert    convert between the text and HINPRIVS snapshot formats\n"
      "  project    meta-path projection of a full t.qq graph\n"
      "  serve      resident attack service over TCP (see DESIGN.md §7)\n"
      "  query      one request against a running serve instance\n"
      "run '<command> --help' for per-command flags\n");
  return 2;
}

std::unique_ptr<anon::Anonymizer> MakeAnonymizer(const std::string& scheme) {
  if (scheme == "kdda") return std::make_unique<anon::KddAnonymizer>();
  if (scheme == "cga") {
    return std::make_unique<anon::CompleteGraphAnonymizer>();
  }
  if (scheme == "vwcga") {
    return std::make_unique<anon::VaryingWeightCgaAnonymizer>();
  }
  if (util::StartsWith(scheme, "kdegree")) {
    const auto k = util::ParseInt64(scheme.substr(std::strlen("kdegree")));
    return std::make_unique<anon::KDegreeAnonymizer>(
        k.ok() ? static_cast<size_t>(k.value()) : 10);
  }
  if (util::StartsWith(scheme, "bucket")) {
    const auto b = util::ParseInt64(scheme.substr(std::strlen("bucket")));
    return std::make_unique<anon::StrengthBucketingAnonymizer>(
        b.ok() ? static_cast<hin::Strength>(b.value()) : 10);
  }
  return nullptr;
}

int RunGenerate(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("users", "10000", "number of users");
  flags.Define("seed", "1", "rng seed");
  flags.Define("out", "network.graph", "output path (hinpriv-graph format)");
  flags.Define("kdd_prefix", "",
               "also write KDD Cup files <prefix>user_profile.txt / "
               "user_sns.txt / user_action.txt");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli generate").c_str());
    return 0;
  }
  synth::TqqConfig config;
  config.num_users = static_cast<size_t>(flags.GetInt("users"));
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  if (!graph.ok()) return Fail(graph.status());
  const util::Status saved =
      hin::SaveGraphAuto(graph.value(), flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %zu users, %zu links, density %.5f\n",
              flags.GetString("out").c_str(), graph.value().num_vertices(),
              graph.value().num_edges(), hin::Density(graph.value()));
  const std::string prefix = flags.GetString("kdd_prefix");
  if (!prefix.empty()) {
    hin::KddCupFiles files;
    files.user_profile = prefix + "user_profile.txt";
    files.user_sns = prefix + "user_sns.txt";
    files.user_action = prefix + "user_action.txt";
    const util::Status kdd = hin::WriteKddCupDataset(graph.value(), files);
    if (!kdd.ok()) return Fail(kdd);
    std::printf("wrote KDD Cup files under prefix '%s'\n", prefix.c_str());
  }
  return 0;
}

int RunGrow(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "base network (hinpriv-graph format)");
  flags.Define("out", "", "grown network output path (empty = don't save)");
  flags.Define("delta_out", "",
               "write the sampled batches as a replayable hinpriv-delta "
               "stream (feed it to 'query --method=apply_delta')");
  flags.Define("batches", "1",
               "growth batches to sample; each batch grows the result of "
               "the previous one (fractions are per batch)");
  flags.Define("new_user_fraction", "0.05",
               "new users per batch, fraction of current users");
  flags.Define("new_edge_fraction", "0.03",
               "new links per batch, fraction of current links");
  flags.Define("attr_growth_prob", "0.3",
               "per user, probability a growable attribute grows");
  flags.Define("attr_growth_max", "50", "max growable-attribute increment");
  flags.Define("strength_growth_prob", "0.1",
               "per growable-strength edge, probability the strength grows");
  flags.Define("strength_growth_max", "3", "max strength increment");
  flags.Define("seed", "7", "rng seed");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli grow").c_str());
    return 0;
  }
  auto base = hin::LoadGraphAuto(flags.GetString("in"));
  if (!base.ok()) return Fail(base.status());

  synth::GrowthConfig growth;
  growth.new_user_fraction = flags.GetDouble("new_user_fraction");
  growth.new_edge_fraction = flags.GetDouble("new_edge_fraction");
  growth.attr_growth_prob = flags.GetDouble("attr_growth_prob");
  growth.attr_growth_max = static_cast<int>(flags.GetInt("attr_growth_max"));
  growth.strength_growth_prob = flags.GetDouble("strength_growth_prob");
  growth.strength_growth_max =
      static_cast<uint32_t>(flags.GetInt("strength_growth_max"));
  const size_t batches =
      static_cast<size_t>(std::max<int64_t>(flags.GetInt("batches"), 1));
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  synth::TqqConfig profile_config;

  // First batch copies the base to a heap graph; later batches append to
  // that copy in place, each sampled against the then-current network.
  auto grown = synth::GrowNetworkWithDelta(base.value(), growth,
                                           profile_config, &rng);
  if (!grown.ok()) return Fail(grown.status());
  hin::Graph current = std::move(grown.value().graph);
  std::vector<hin::GraphDelta> deltas;
  deltas.push_back(std::move(grown.value().delta));
  for (size_t b = 1; b < batches; ++b) {
    auto delta =
        synth::SampleGrowthDelta(current, growth, profile_config, &rng);
    if (!delta.ok()) return Fail(delta.status());
    const util::Status applied =
        hin::GraphBuilder::ApplyDelta(&current, delta.value());
    if (!applied.ok()) return Fail(applied);
    deltas.push_back(std::move(delta).value());
  }

  size_t new_vertices = 0, new_edges = 0, attr_bumps = 0;
  for (const hin::GraphDelta& d : deltas) {
    new_vertices += d.new_vertices.size();
    new_edges += d.edge_adds.size();
    attr_bumps += d.attr_bumps.size();
  }
  std::printf("grew %s: %zu batches, +%zu users, +%zu link adds, +%zu "
              "attribute bumps -> %zu users, %zu links\n",
              flags.GetString("in").c_str(), deltas.size(), new_vertices,
              new_edges, attr_bumps, current.num_vertices(),
              current.num_edges());

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const util::Status saved = hin::SaveGraphAuto(current, out);
    if (!saved.ok()) return Fail(saved);
    std::printf("wrote grown network to %s\n", out.c_str());
  }
  const std::string delta_out = flags.GetString("delta_out");
  if (!delta_out.empty()) {
    const util::Status saved = hin::SaveDeltaStreamToFile(deltas, delta_out);
    if (!saved.ok()) return Fail(saved);
    std::printf("wrote delta stream (%zu batches) to %s\n", deltas.size(),
                delta_out.c_str());
  }
  return 0;
}

int RunAnonymize(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "input graph (hinpriv-graph format)");
  flags.Define("scheme", "kdda",
               "kdda | cga | vwcga | kdegree<k> | bucket<size>");
  flags.Define("out", "anonymized.graph", "published graph output path");
  flags.Define("mapping", "",
               "optional TSV output: anonymized id -> original id "
               "(the ground truth; keep it private!)");
  flags.Define("seed", "2", "rng seed");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli anonymize").c_str());
    return 0;
  }
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  auto anonymizer = MakeAnonymizer(flags.GetString("scheme"));
  if (anonymizer == nullptr) {
    return Fail(util::Status::InvalidArgument("unknown scheme '" +
                                              flags.GetString("scheme") +
                                              "'"));
  }
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto published = anonymizer->Anonymize(graph.value(), &rng);
  if (!published.ok()) return Fail(published.status());
  const util::Status saved =
      hin::SaveGraphAuto(published.value().graph, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  std::printf("published %s via %s: %zu links (was %zu)\n",
              flags.GetString("out").c_str(), anonymizer->name().c_str(),
              published.value().graph.num_edges(),
              graph.value().num_edges());
  const std::string mapping_path = flags.GetString("mapping");
  if (!mapping_path.empty()) {
    std::ofstream out(mapping_path);
    if (!out) {
      return Fail(util::Status::IoError("cannot write " + mapping_path));
    }
    for (hin::VertexId v = 0; v < published.value().to_original.size(); ++v) {
      out << v << '\t' << published.value().to_original[v] << '\n';
    }
    std::printf("ground-truth mapping written to %s\n", mapping_path.c_str());
  }
  return 0;
}

util::Result<std::vector<hin::VertexId>> LoadMapping(const std::string& path,
                                                     size_t expected) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot read " + path);
  std::vector<hin::VertexId> mapping(expected, hin::kInvalidVertex);
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = util::Split(trimmed, '\t');
    if (fields.size() != 2) {
      return util::Status::Corruption("malformed mapping row: " + line);
    }
    auto anon_id = util::ParseUint64(fields[0]);
    auto orig_id = util::ParseUint64(fields[1]);
    if (!anon_id.ok() || !orig_id.ok() || anon_id.value() >= expected) {
      return util::Status::Corruption("bad mapping row: " + line);
    }
    mapping[anon_id.value()] = static_cast<hin::VertexId>(orig_id.value());
  }
  return mapping;
}

// Writes the telemetry outputs the attack subcommand was asked for; called
// once at the end of the run (on the success paths). Joins the attack's
// pool first: when the calling thread claimed every target before the OS
// first scheduled a worker, that worker has not yet named its track, and a
// trace written while the pool is alive would lack it.
int EmitAttackTelemetry(std::unique_ptr<exec::Executor> pool,
                        const std::string& metrics_path,
                        const std::string& trace_path) {
  pool.reset();
  if (!trace_path.empty()) {
    obs::StopTracing();
    const util::Status written = obs::WriteChromeTrace(trace_path);
    if (!written.ok()) return Fail(written);
    std::printf("trace written to %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const util::Status written = obs::WriteMetricsJson(
        obs::MetricsRegistry::Global().Snapshot(), metrics_path);
    if (!written.ok()) return Fail(written);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

int RunAttack(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("target", "", "published (anonymized) graph");
  flags.Define("aux", "", "adversary's auxiliary graph");
  flags.Define("mapping", "",
               "optional ground-truth TSV (anonymized id -> aux id) to "
               "score precision");
  flags.Define("max_distance", "2", "max neighbor distance n");
  flags.Define("strip", "false",
               "reconfigured attack: strip majority strengths + saturation "
               "fallback (Section 6.2)");
  flags.Define("out", "", "optional TSV: target id -> candidate count");
  flags.Define("threads", "1",
               "worker threads; 0 = one per CPU this process may run on. "
               "With --mapping and no --out this runs the across-target "
               "parallel evaluator; otherwise each target's candidate scan "
               "is parallelized in-query (results identical to --threads=1)");
  flags.Define("metrics_json", "",
               "write a metrics snapshot (counters/gauges/histograms) to "
               "this path after the attack");
  flags.Define("trace_out", "",
               "record phase spans and write Chrome trace-event JSON to "
               "this path (load in chrome://tracing or Perfetto)");
  flags.Define("heartbeat_sec", "30",
               "progress line to stderr every N seconds (0 = off)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli attack").c_str());
    return 0;
  }
  const std::string metrics_path = flags.GetString("metrics_json");
  const std::string trace_path = flags.GetString("trace_out");
  // Long attacks stop at a target boundary on SIGINT/SIGTERM and still
  // flush the partial --metrics_json/--trace_out outputs below.
  service::InstallShutdownSignalHandlers();
  if (!trace_path.empty()) {
    obs::SetCurrentThreadName("main");
    obs::StartTracing();
  }
  auto target = hin::LoadGraphAuto(flags.GetString("target"));
  if (!target.ok()) return Fail(target.status());
  auto aux = hin::LoadGraphAuto(flags.GetString("aux"));
  if (!aux.ok()) return Fail(aux.status());

  hin::Graph published = std::move(target).value();
  core::DehinConfig config;
  config.match = core::DefaultTqqMatchOptions();
  if (flags.GetBool("strip")) {
    auto stripped = core::StripMajorityStrengthLinks(published);
    if (!stripped.ok()) return Fail(stripped.status());
    published = std::move(stripped).value();
    config.saturation_fraction = 0.5;
  }
  core::Dehin dehin(&aux.value(), config);
  const int n = static_cast<int>(flags.GetInt("max_distance"));
  const double heartbeat_sec = flags.GetDouble("heartbeat_sec");

  // One executor serves both parallel shapes: across-target evaluation
  // (one task per target) and the intra-query candidate scan (grains of
  // one target's scan).
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));
  std::unique_ptr<exec::Executor> pool;
  if (threads != 1) {
    pool = std::make_unique<exec::Executor>(exec::ResolveThreads(threads));
  }

  // Across-target path: score every target through
  // eval::EvaluateAttackParallel (per-worker spans, shared match cache
  // across workers). It reports aggregates only, so a --threads run that
  // needs the per-target TSV falls through to the per-target loop below,
  // which parallelizes inside each query instead.
  if (threads != 1 && !flags.GetString("mapping").empty() &&
      flags.GetString("out").empty()) {
    auto mapping =
        LoadMapping(flags.GetString("mapping"), published.num_vertices());
    if (!mapping.ok()) return Fail(mapping.status());
    eval::ParallelEvalOptions options;
    options.executor = pool.get();
    options.heartbeat_seconds = heartbeat_sec;
    options.cancel = &service::ShutdownToken();
    const eval::AttackMetrics metrics = eval::EvaluateAttackParallel(
        dehin, published, mapping.value(), n, options);
    if (metrics.interrupted) {
      std::printf("interrupted by signal after %zu/%zu targets; partial "
                  "results follow\n",
                  metrics.num_evaluated, metrics.num_targets);
    }
    std::printf(
        "targets: %zu; precision: %.1f%%; truth contained: %zu; mean "
        "candidate set: %.1f of %zu\n",
        metrics.num_targets, 100.0 * metrics.precision,
        metrics.num_containing_truth, metrics.mean_candidate_count,
        aux.value().num_vertices());
    std::printf("prefilter rejects: %.1f%%; cache hits: %.1f%%\n",
                100.0 * metrics.dehin_stats.PrefilterRejectRate(),
                100.0 * metrics.dehin_stats.CacheHitRate());
    return EmitAttackTelemetry(std::move(pool), metrics_path, trace_path);
  }

  size_t unique = 0;
  double candidate_sum = 0.0;
  std::ofstream out;
  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) return Fail(util::Status::IoError("cannot write " + out_path));
    out << "target_id\tnum_candidates\tcandidates_if_unique\n";
  }
  std::vector<size_t> candidate_counts(published.num_vertices());
  std::vector<hin::VertexId> unique_match(published.num_vertices(),
                                          hin::kInvalidVertex);
  const auto run_start = std::chrono::steady_clock::now();
  auto last_beat = run_start;
  size_t evaluated = 0;
  for (hin::VertexId v = 0; v < published.num_vertices(); ++v) {
    // Stop at a target boundary on SIGINT/SIGTERM; partial per-target
    // output and telemetry are still flushed below.
    if (service::ShutdownToken().ShouldStop()) break;
    std::vector<hin::VertexId> candidates;
    if (pool != nullptr && pool->num_workers() > 1) {
      // Intra-query scan: this one target's candidate scan fans out over
      // the pool; the merged result is bit-identical to the serial call.
      core::Dehin::ParallelScanOptions scan;
      scan.executor = pool.get();
      scan.cancel = &service::ShutdownToken();
      auto result = dehin.DeanonymizeParallel(published, v, n, scan);
      if (!result.ok()) break;  // signal: stop at the target boundary
      candidates = std::move(result).value();
    } else {
      candidates = dehin.Deanonymize(published, v, n);
    }
    ++evaluated;
    candidate_counts[v] = candidates.size();
    candidate_sum += static_cast<double>(candidates.size());
    if (candidates.size() == 1) {
      ++unique;
      unique_match[v] = candidates[0];
    }
    if (out.is_open()) {
      out << v << '\t' << candidates.size() << '\t';
      if (candidates.size() == 1) out << candidates[0];
      out << '\n';
    }
    if (heartbeat_sec > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_beat).count() >=
          heartbeat_sec) {
        last_beat = now;
        std::fprintf(stderr,
                     "[hinpriv] attack progress: %zu/%zu targets (%.1f%%), "
                     "%.1fs elapsed\n",
                     static_cast<size_t>(v) + 1,
                     static_cast<size_t>(published.num_vertices()),
                     100.0 * static_cast<double>(v + 1) /
                         static_cast<double>(published.num_vertices()),
                     std::chrono::duration<double>(now - run_start).count());
      }
    }
  }
  if (evaluated < published.num_vertices()) {
    std::printf("interrupted by signal after %zu/%zu targets; partial "
                "results follow\n",
                evaluated, static_cast<size_t>(published.num_vertices()));
  }
  std::printf("targets: %zu; uniquely matched: %zu (%.1f%%); mean candidate "
              "set: %.1f of %zu\n",
              evaluated, unique,
              100.0 * static_cast<double>(unique) /
                  static_cast<double>(std::max<size_t>(1, evaluated)),
              candidate_sum /
                  static_cast<double>(std::max<size_t>(1, evaluated)),
              aux.value().num_vertices());

  const std::string mapping_path = flags.GetString("mapping");
  if (!mapping_path.empty() && evaluated > 0) {
    auto mapping = LoadMapping(mapping_path, published.num_vertices());
    if (!mapping.ok()) return Fail(mapping.status());
    size_t correct = 0;
    for (hin::VertexId v = 0; v < evaluated; ++v) {
      if (unique_match[v] != hin::kInvalidVertex &&
          unique_match[v] == mapping.value()[v]) {
        ++correct;
      }
    }
    std::printf("scored against ground truth: precision %.1f%%\n",
                100.0 * static_cast<double>(correct) /
                    static_cast<double>(evaluated));
  }
  return EmitAttackTelemetry(std::move(pool), metrics_path, trace_path);
}

int RunAudit(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "graph to audit (hinpriv-graph format)");
  flags.Define("max_distance", "3", "deepest distance to audit");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli audit").c_str());
    return 0;
  }
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  core::SignatureOptions options;
  const size_t num_attrs = graph.value().num_attributes(0);
  for (hin::AttributeId a = 0; a < num_attrs; ++a) {
    options.attributes.push_back(a);
  }
  options.link_types = core::AllLinkTypes(graph.value());
  const auto ladder = core::NetworkPrivacyRisk(
      graph.value(), options, static_cast<int>(flags.GetInt("max_distance")));
  std::printf("privacy risk of %s (%zu users):\n",
              flags.GetString("in").c_str(), graph.value().num_vertices());
  for (const auto& level : ladder) {
    std::printf("  n = %d: R(T) = %.4f (cardinality %zu)\n",
                level.max_distance, level.risk, level.cardinality);
  }
  return 0;
}

// Renders one `stats` admin response as a compact operator view: health
// line, growth, windowed rates/percentiles, per-distance counters, and the
// slow-query log, worst first.
void PrintLiveStats(const service::JsonValue& result) {
  std::printf("health: %-9s uptime: %.1fs   queue: %lld/%lld   workers: %lld"
              "   tracing: %s\n",
              result.GetString("health", "unknown").c_str(),
              result.GetDouble("uptime_sec"),
              static_cast<long long>(result.GetInt("queue_depth")),
              static_cast<long long>(result.GetInt("queue_capacity")),
              static_cast<long long>(result.GetInt("num_workers")),
              result.GetBool("tracing") ? "on" : "off");
  std::printf("requests: %lld received, %lld ok, %lld shed, %lld "
              "deadline-missed\n",
              static_cast<long long>(result.GetInt("requests_received")),
              static_cast<long long>(result.GetInt("responses_ok")),
              static_cast<long long>(result.GetInt("shed")),
              static_cast<long long>(result.GetInt("deadline_exceeded")));
  if (const service::JsonValue* dehin = result.Find("dehin");
      dehin != nullptr) {
    std::printf("cache: %lld hits, %lld full tests (hit rate %.3f)   "
                "prefilter rejects: %lld\n",
                static_cast<long long>(dehin->GetInt("cache_hits")),
                static_cast<long long>(dehin->GetInt("full_tests")),
                dehin->GetDouble("cache_hit_rate"),
                static_cast<long long>(dehin->GetInt("prefilter_rejects")));
  }
  if (result.Find("delta_epoch") != nullptr) {
    std::printf("growth: epoch %lld   overlay: %lld runs, %lld edges, "
                "%lld compactions\n",
                static_cast<long long>(result.GetInt("delta_epoch")),
                static_cast<long long>(result.GetInt("overlay_patched_runs")),
                static_cast<long long>(result.GetInt("overlay_patched_edges")),
                static_cast<long long>(result.GetInt("overlay_compactions")));
  }
  if (const service::JsonValue* windows = result.Find("windows");
      windows != nullptr && windows->is_array()) {
    std::printf("%-8s %10s %8s %8s %9s %9s %9s %7s\n", "window", "qps",
                "shed/s", "miss/s", "p50_us", "p95_us", "p99_us", "n");
    for (const service::JsonValue& w : windows->items()) {
      const service::JsonValue* latency = w.Find("latency");
      std::printf("%-8s %10.1f %8.2f %8.2f %9.0f %9.0f %9.0f %7lld\n",
                  (util::FormatDouble(w.GetDouble("requested_window_sec"), 0) +
                   "s (" + util::FormatDouble(w.GetDouble("window_sec"), 1) +
                   ")")
                      .c_str(),
                  w.GetDouble("qps"), w.GetDouble("shed_per_sec"),
                  w.GetDouble("deadline_miss_per_sec"),
                  latency != nullptr ? latency->GetDouble("p50_us") : 0.0,
                  latency != nullptr ? latency->GetDouble("p95_us") : 0.0,
                  latency != nullptr ? latency->GetDouble("p99_us") : 0.0,
                  static_cast<long long>(
                      latency != nullptr ? latency->GetInt("count") : 0));
    }
  }
  if (const service::JsonValue* per_distance = result.Find("per_distance");
      per_distance != nullptr && !per_distance->members().empty()) {
    std::printf("per-distance:");
    for (const auto& [name, slot] : per_distance->members()) {
      std::printf("  %s: %lld attacks / %lld deanonymized", name.c_str(),
                  static_cast<long long>(slot.GetInt("attacks")),
                  static_cast<long long>(slot.GetInt("deanonymized")));
    }
    std::printf("\n");
  }
  if (const service::JsonValue* slow = result.Find("slow_queries");
      slow != nullptr && slow->size() > 0) {
    std::printf("slow queries (worst first):\n");
    for (const service::JsonValue& q : slow->items()) {
      std::printf("  rid=%-6lld %-10s", static_cast<long long>(q.GetInt("rid")),
                  q.GetString("method").c_str());
      if (const service::JsonValue* target = q.Find("target");
          target != nullptr) {
        std::printf(" target=%lld", static_cast<long long>(target->AsInt()));
      }
      std::printf(" d=%lld %s total=%lldus (queue=%lld run=%lld write=%lld)\n",
                  static_cast<long long>(q.GetInt("max_distance")),
                  q.GetString("code").c_str(),
                  static_cast<long long>(q.GetInt("total_us")),
                  static_cast<long long>(q.GetInt("queue_us")),
                  static_cast<long long>(q.GetInt("run_us")),
                  static_cast<long long>(q.GetInt("write_us")));
    }
  }
}

// Live mode of `stats`: one round-trip to a running serve instance, or a
// terminal dashboard refreshed every --watch seconds until interrupted.
int RunLiveStats(const std::string& host, uint16_t port, double watch_sec) {
  if (watch_sec > 0) service::InstallShutdownSignalHandlers();
  auto client = service::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  while (true) {
    auto response = client.value().Stats();
    if (!response.ok()) return Fail(response.status());
    if (response.value().code != service::ResponseCode::kOk) {
      return Fail(util::Status::FailedPrecondition(
          std::string("stats request failed: ") +
          service::ResponseCodeName(response.value().code) + " " +
          response.value().error));
    }
    if (watch_sec > 0) {
      // ANSI clear-screen keeps the dashboard in place between refreshes.
      std::printf("\x1b[2J\x1b[H");
    }
    PrintLiveStats(response.value().result);
    std::fflush(stdout);
    if (watch_sec <= 0) return 0;
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(watch_sec));
    while (std::chrono::steady_clock::now() < wake) {
      if (service::ShutdownToken().cancelled()) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

int RunStats(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "graph (hinpriv-graph format)");
  flags.Define("host", "127.0.0.1", "live mode: server address");
  flags.Define("port", "0",
               "live mode: poll a running serve instance on this port "
               "instead of reading --in");
  flags.Define("watch", "0",
               "live mode: refresh every N seconds until interrupted "
               "(0 = print once)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli stats").c_str());
    return 0;
  }
  if (flags.GetInt("port") > 0) {
    return RunLiveStats(flags.GetString("host"),
                        static_cast<uint16_t>(flags.GetInt("port")),
                        flags.GetDouble("watch"));
  }
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  const hin::Graph& g = graph.value();
  std::printf("vertices: %zu   links: %zu   density: %.6f   mean out-degree: "
              "%.2f   in-degree Gini: %.3f\n",
              g.num_vertices(), g.num_edges(), hin::Density(g),
              hin::MeanOutDegree(g), hin::InDegreeGini(g));
  for (hin::LinkTypeId lt = 0; lt < g.num_link_types(); ++lt) {
    auto histogram = hin::OutDegreeHistogram(g, lt);
    size_t edges = 0;
    for (const auto& [degree, count] : histogram) edges += degree * count;
    histogram.erase(0);
    auto alpha = hin::EstimatePowerLawAlpha(histogram, 3);
    std::printf("  %-10s: %8zu links, out-degree power-law alpha: %s\n",
                g.schema().link_type(lt).name.c_str(), edges,
                alpha.ok() ? util::FormatDouble(alpha.value(), 2).c_str()
                           : "n/a");
  }
  return 0;
}

int RunConvert(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "input graph (either format, auto-detected)");
  flags.Define("out", "",
               "output path (.snap => mmap-able HINPRIVS snapshot, else "
               "text)");
  flags.Define("verify", "false",
               "re-open the written file (a snapshot with the full O(E) "
               "edge payload scan) before reporting success");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli convert").c_str());
    return 0;
  }
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  const std::string out = flags.GetString("out");
  const util::Status saved = hin::SaveGraphAuto(graph.value(), out);
  if (!saved.ok()) return Fail(saved);
  if (flags.GetBool("verify")) {
    hin::SnapshotOptions options;
    options.verify_edges = true;
    auto reloaded = hin::LoadGraphAuto(out, options);
    if (!reloaded.ok()) return Fail(reloaded.status());
    if (reloaded.value().num_vertices() != graph.value().num_vertices() ||
        reloaded.value().num_edges() != graph.value().num_edges()) {
      return Fail(util::Status::Corruption(
          "verification found a vertex/edge count mismatch in " + out));
    }
  }
  std::printf("converted %s -> %s (%zu vertices, %zu links%s)\n",
              flags.GetString("in").c_str(), out.c_str(),
              graph.value().num_vertices(), graph.value().num_edges(),
              flags.GetBool("verify") ? ", verified" : "");
  return 0;
}

int RunProject(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("in", "", "full t.qq-schema graph (users/tweets/comments)");
  flags.Define("out", "projected.graph", "projected target-schema output");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli project").c_str());
    return 0;
  }
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  if (graph.value().schema().FindEntityType(hin::kUserType) ==
          hin::kInvalidEntityType ||
      graph.value().schema().FindLinkType("post_tweet") ==
          hin::kInvalidLinkType) {
    return Fail(util::Status::InvalidArgument(
        "input does not follow the full t.qq schema (hin::TqqFullSchema)"));
  }
  auto projected = hin::ProjectGraph(
      graph.value(), hin::TqqTargetSpec(graph.value().schema()));
  if (!projected.ok()) return Fail(projected.status());
  const util::Status saved =
      hin::SaveGraphAuto(projected.value().graph, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  std::printf("projected %zu-entity full network onto %zu users / %zu "
              "target-schema links -> %s\n",
              graph.value().num_vertices(),
              projected.value().graph.num_vertices(),
              projected.value().graph.num_edges(),
              flags.GetString("out").c_str());
  return 0;
}

int RunServe(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("target", "", "published (anonymized) graph to serve");
  flags.Define("aux", "",
               "adversary's auxiliary graph; a HINPRIVS snapshot (see "
               "'convert') is mapped instead of parsed (instant warmstart; "
               "pages shared between replicas mapping the same file)");
  flags.Define("mlock", "false",
               "for a snapshot --aux: pin the mapping in RAM so queries "
               "never take a page-cache miss (soft-fails under "
               "RLIMIT_MEMLOCK)");
  flags.Define("host", "127.0.0.1",
               "IPv4 listen address (keep the service on loopback: it hands "
               "out de-anonymization results)");
  flags.Define("port", "7470", "TCP port (0 = kernel-assigned, printed)");
  flags.Define("workers", "4",
               "execution pool size shared by request handling and "
               "intra-query scans; with more than one worker each "
               "attack_one scans in parallel (0 = one per CPU this process "
               "may run on)");
  flags.Define("queue_capacity", "128",
               "request queue bound; a full queue sheds with BUSY");
  flags.Define("max_batch", "8",
               "micro-batch size for compatible queued requests (1 = off)");
  flags.Define("max_distance", "1",
               "default max neighbor distance for requests that omit it");
  flags.Define("deadline_ms", "0",
               "default per-request deadline in ms (0 = none)");
  flags.Define("metrics_json", "",
               "write a final metrics snapshot to this path on shutdown");
  flags.Define("trace_out", "",
               "record phase spans and write Chrome trace-event JSON to "
               "this path on shutdown");
  flags.Define("heartbeat_sec", "0",
               "print a one-line self-report (q/s, queue depth, p99, "
               "health) to stderr every N seconds (0 = off)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli serve").c_str());
    return 0;
  }
  const std::string trace_path = flags.GetString("trace_out");
  if (!trace_path.empty()) {
    obs::SetCurrentThreadName("main");
    obs::StartTracing();
  }
  auto target = hin::LoadGraphAuto(flags.GetString("target"));
  if (!target.ok()) return Fail(target.status());
  const std::string aux_path = flags.GetString("aux");
  hin::SnapshotOptions snapshot_options;
  snapshot_options.mlock = flags.GetBool("mlock");
  auto aux = hin::LoadGraphAuto(aux_path, snapshot_options);
  if (!aux.ok()) return Fail(aux.status());
  if (aux.value().is_mapped()) {
    std::printf("auxiliary graph mapped from snapshot %s (%zu vertices, "
                "%zu links%s)\n",
                aux_path.c_str(), aux.value().num_vertices(),
                aux.value().num_edges(),
                snapshot_options.mlock ? ", mlocked" : "");
  }

  service::ServerConfig config;
  config.host = flags.GetString("host");
  config.port = static_cast<uint16_t>(flags.GetInt("port"));
  config.num_workers = static_cast<size_t>(flags.GetInt("workers"));
  config.queue_capacity = static_cast<size_t>(flags.GetInt("queue_capacity"));
  config.max_batch = static_cast<size_t>(flags.GetInt("max_batch"));
  config.default_max_distance = static_cast<int>(flags.GetInt("max_distance"));
  config.default_deadline_ms = flags.GetDouble("deadline_ms");
  config.metrics_json_path = flags.GetString("metrics_json");
  config.dehin.match = core::DefaultTqqMatchOptions();
  config.dehin.max_distance = config.default_max_distance;

  // Streaming growth: text-loaded and mapped auxiliaries both take
  // apply_delta (batches land in the graph's heap overlay).
  config.mutable_aux = &aux.value();

  service::InstallShutdownSignalHandlers();
  service::Server server(&target.value(), &aux.value(), config);
  status = server.Start();
  if (!status.ok()) return Fail(status);
  std::printf("serving %s (aux %s) on %s:%u — %zu workers, queue %zu, "
              "batch %zu; SIGINT/SIGTERM drains gracefully\n",
              flags.GetString("target").c_str(), aux_path.c_str(),
              config.host.c_str(), static_cast<unsigned>(server.port()),
              config.num_workers, config.queue_capacity, config.max_batch);
  std::fflush(stdout);

  const double heartbeat_sec = flags.GetDouble("heartbeat_sec");
  auto next_heartbeat =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(heartbeat_sec, 0.0)));
  while (!service::ShutdownToken().cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (heartbeat_sec > 0 &&
        std::chrono::steady_clock::now() >= next_heartbeat) {
      // Self-report through the same windowed aggregator the stats verb
      // reads, so the log line and a live `stats --watch` agree.
      const service::Server::LiveStats live = server.Live(heartbeat_sec);
      std::fprintf(stderr,
                   "[serve] health=%s qps=%.1f p99=%.0fus queue=%zu "
                   "received=%llu (%.1fs window)\n",
                   service::HealthStateName(live.health), live.qps,
                   live.p99_us, live.queue_depth,
                   static_cast<unsigned long long>(live.requests_received),
                   live.window_sec);
      next_heartbeat +=
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(heartbeat_sec));
    }
  }
  std::printf("shutdown signal received; draining in-flight requests\n");
  server.Shutdown();
  if (!trace_path.empty()) {
    obs::StopTracing();
    const util::Status written = obs::WriteChromeTrace(trace_path);
    if (!written.ok()) return Fail(written);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!config.metrics_json_path.empty()) {
    std::printf("final metrics snapshot written to %s\n",
                config.metrics_json_path.c_str());
  }
  return 0;
}

int RunQuery(int argc, char** argv) {
  util::FlagParser flags;
  flags.Define("host", "127.0.0.1", "server address");
  flags.Define("port", "7470", "server port");
  flags.Define("method", "stats",
               "attack_one | risk | stats | sleep | health | metrics | "
               "trace_start | trace_stop | trace_dump | apply_delta");
  flags.Define("target_id", "-1",
               "anonymized vertex id (required for attack_one; optional for "
               "risk: present = per-entity R(t), absent = network R(T))");
  flags.Define("max_distance", "-1",
               "max neighbor distance (-1 = server default)");
  flags.Define("deadline_ms", "0", "per-request deadline in ms (0 = none)");
  flags.Define("sleep_ms", "0", "sleep method only: how long to hold a worker");
  flags.Define("path", "",
               "metrics / trace_dump: server-side output path (required for "
               "traces larger than one frame); apply_delta: server-side "
               "hinpriv-delta stream to replay (see 'grow --delta-out')");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("hinpriv_cli query").c_str());
    return 0;
  }
  const auto method = service::ParseMethod(flags.GetString("method"));
  if (!method.has_value()) {
    return Fail(util::Status::InvalidArgument(
        "unknown method '" + flags.GetString("method") +
        "' (want attack_one|risk|stats|sleep|health|metrics|trace_start|"
        "trace_stop|trace_dump|apply_delta)"));
  }
  auto client = service::Client::Connect(
      flags.GetString("host"), static_cast<uint16_t>(flags.GetInt("port")));
  if (!client.ok()) return Fail(client.status());

  service::Request request;
  request.id = 1;
  request.method = *method;
  const int64_t target_id = flags.GetInt("target_id");
  if (target_id >= 0) {
    request.target = static_cast<hin::VertexId>(target_id);
    request.has_target = true;
  }
  request.max_distance = static_cast<int>(flags.GetInt("max_distance"));
  request.deadline_ms = flags.GetDouble("deadline_ms");
  request.sleep_ms = flags.GetDouble("sleep_ms");
  request.path = flags.GetString("path");

  auto response = client.value().Call(request);
  if (!response.ok()) return Fail(response.status());
  // The response document goes to stdout verbatim, so `query` composes
  // with jq and scripts; the exit code reflects the protocol code.
  std::printf("%s\n",
              service::EncodeResponse(response.value()).Serialize().c_str());
  return response.value().code == service::ResponseCode::kOk ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // Subcommands reparse argv without the command token.
  if (command == "generate") return RunGenerate(argc - 1, argv + 1);
  if (command == "grow") return RunGrow(argc - 1, argv + 1);
  if (command == "anonymize") return RunAnonymize(argc - 1, argv + 1);
  if (command == "attack") return RunAttack(argc - 1, argv + 1);
  if (command == "audit") return RunAudit(argc - 1, argv + 1);
  if (command == "stats") return RunStats(argc - 1, argv + 1);
  if (command == "convert") return RunConvert(argc - 1, argv + 1);
  if (command == "project") return RunProject(argc - 1, argv + 1);
  if (command == "serve") return RunServe(argc - 1, argv + 1);
  if (command == "query") return RunQuery(argc - 1, argv + 1);
  if (command == "--help" || command == "-h") {
    Usage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace hinpriv::cli

int main(int argc, char** argv) { return hinpriv::cli::Main(argc, argv); }
