// hinpriv — command-line front end to the library.
//
//   hinpriv_cli generate  --users=50000 --out=net.graph [--kdd_prefix=dir/]
//   hinpriv_cli anonymize --in=net.graph --scheme=cga --out=anon.graph
//                         --mapping=mapping.tsv
//   hinpriv_cli attack    --target=anon.graph --aux=net.graph
//                         [--mapping=mapping.tsv] [--out=candidates.tsv]
//                         [--max_distance=2] [--strip] [--threads=4]
//                         [--metrics-json=m.json] [--trace-out=run.trace.json]
//   hinpriv_cli grow      --in=net.graph --out=grown.graph
//                         [--delta-out=deltas.hinpriv] [--batches=3]
//                         [--new_user_fraction=0.05] [--seed=7]
//   hinpriv_cli audit     --in=net.graph [--max_distance=3]
//   hinpriv_cli stats     --in=net.graph
//   hinpriv_cli stats     --port=7470 [--watch=2]      # live server stats
//   hinpriv_cli convert   --in=net.graph --out=net.snap [--verify]
//   hinpriv_cli serve     --target=anon.graph --aux=net.snap [--port=7470]
//                         [--workers=4] [--queue_capacity=128]
//                         [--heartbeat_sec=10]
//   hinpriv_cli query     --port=7470 --method=attack_one --target_id=123
//
// Every subcommand exchanges graphs through hin::LoadGraphAuto /
// hin::SaveGraphAuto (text, or HINPRIVS mmap snapshot for a .snap path,
// auto-detected on load); `generate` can additionally emit the KDD Cup
// 2012 three-file layout for tools built against the original release.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anon/complete_graph_anonymizer.h"
#include "anon/k_degree_anonymizer.h"
#include "anon/kdd_anonymizer.h"
#include "anon/utility_tradeoff_anonymizers.h"
#include "core/dehin.h"
#include "core/privacy_risk.h"
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

// An integer flag refused outside [lo, hi], checked before any cast to a
// narrower or unsigned type could wrap it. A value that does not parse is
// refused too (FlagParser::GetInt would silently use the default).
util::Result<int64_t> IntFlagIn(const util::FlagParser& flags,
                                const std::string& name, int64_t lo,
                                int64_t hi) {
  const auto value = util::ParseInt64(flags.GetString(name));
  if (!value.ok() || value.value() < lo || value.value() > hi) {
    return util::Status::InvalidArgument("--" + name + " must be an integer "
                                         "in [" + std::to_string(lo) + ", " +
                                         std::to_string(hi) + "]");
  }
  return value.value();
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

// The number that follows `prefix` in a scheme name (the k of
// kdegree<k>), refused when it does not parse or falls outside [lo, hi].
util::Result<int64_t> SchemeNumber(const std::string& scheme,
                                   const std::string& prefix, int64_t lo,
                                   int64_t hi) {
  const auto value = util::ParseInt64(scheme.substr(prefix.size()));
  if (!value.ok() || value.value() < lo || value.value() > hi) {
    return util::Status::InvalidArgument(
        "--scheme=" + scheme + ": want " + prefix + "<n> with n in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value.value();
}

util::Result<std::unique_ptr<anon::Anonymizer>> MakeAnonymizer(
    const std::string& scheme) {
  using Made = std::unique_ptr<anon::Anonymizer>;
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  if (scheme == "kdda") return Made(std::make_unique<anon::KddAnonymizer>());
  if (scheme == "cga") {
    return Made(std::make_unique<anon::CompleteGraphAnonymizer>());
  }
  if (scheme == "vwcga") {
    return Made(std::make_unique<anon::VaryingWeightCgaAnonymizer>());
  }
  if (util::StartsWith(scheme, "kdegree")) {
    const auto k = SchemeNumber(scheme, "kdegree", 2, kMaxU32);
    if (!k.ok()) return k.status();
    return Made(std::make_unique<anon::KDegreeAnonymizer>(
        static_cast<size_t>(k.value())));
  }
  if (util::StartsWith(scheme, "bucket")) {
    const auto b = SchemeNumber(scheme, "bucket", 1, kMaxU32);
    if (!b.ok()) return b.status();
    return Made(std::make_unique<anon::StrengthBucketingAnonymizer>(
        static_cast<hin::Strength>(b.value())));
  }
  return util::Status::InvalidArgument("unknown scheme '" + scheme + "'");
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
  // At least the two users the generator needs, and ids that fit a
  // 32-bit VertexId below kInvalidVertex.
  const auto users = IntFlagIn(flags, "users", 2,
                               std::numeric_limits<uint32_t>::max());
  if (!users.ok()) return Fail(users.status());
  synth::TqqConfig config;
  config.num_users = static_cast<size_t>(users.value());
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
  const auto attr_growth_max = IntFlagIn(flags, "attr_growth_max", 1,
                                         std::numeric_limits<int>::max());
  if (!attr_growth_max.ok()) return Fail(attr_growth_max.status());
  const auto strength_growth_max = IntFlagIn(
      flags, "strength_growth_max", 1, std::numeric_limits<uint32_t>::max());
  if (!strength_growth_max.ok()) return Fail(strength_growth_max.status());
  auto base = hin::LoadGraphAuto(flags.GetString("in"));
  if (!base.ok()) return Fail(base.status());

  synth::GrowthConfig growth;
  growth.new_user_fraction = flags.GetDouble("new_user_fraction");
  growth.new_edge_fraction = flags.GetDouble("new_edge_fraction");
  growth.attr_growth_prob = flags.GetDouble("attr_growth_prob");
  growth.attr_growth_max = static_cast<int>(attr_growth_max.value());
  growth.strength_growth_prob = flags.GetDouble("strength_growth_prob");
  growth.strength_growth_max =
      static_cast<uint32_t>(strength_growth_max.value());
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
  const auto made = MakeAnonymizer(flags.GetString("scheme"));
  if (!made.ok()) return Fail(made.status());
  const anon::Anonymizer& anonymizer = *made.value();
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  auto published = anonymizer.Anonymize(graph.value(), &rng);
  if (!published.ok()) return Fail(published.status());
  const util::Status saved =
      hin::SaveGraphAuto(published.value().graph, flags.GetString("out"));
  if (!saved.ok()) return Fail(saved);
  std::printf("published %s via %s: %zu links (was %zu)\n",
              flags.GetString("out").c_str(), anonymizer.name().c_str(),
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

// Reads the anonymize --mapping TSV: one "anonymized id\toriginal id" row
// per target vertex. Both ids must name a vertex: the anonymized one of the
// published graph (`num_targets`), the original one of the auxiliary graph
// (`num_aux`). Targets without a row map to kInvalidVertex.
util::Result<std::vector<hin::VertexId>> LoadMapping(const std::string& path,
                                                     size_t num_targets,
                                                     size_t num_aux) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot read " + path);
  std::vector<hin::VertexId> mapping(num_targets, hin::kInvalidVertex);
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
    if (!anon_id.ok() || !orig_id.ok() || anon_id.value() >= num_targets ||
        orig_id.value() >= num_aux) {
      return util::Status::Corruption("bad mapping row: " + line);
    }
    mapping[anon_id.value()] = static_cast<hin::VertexId>(orig_id.value());
  }
  return mapping;
}

// Writes the telemetry outputs the attack subcommand was asked for; called
// once, at the end of a run that succeeded. Joins the attack's
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
               "worker threads scoring targets concurrently; 0 = one per "
               "CPU this process may run on (results identical for every "
               "value)");
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
  const auto max_distance =
      IntFlagIn(flags, "max_distance", 0, service::kMaxDistance);
  if (!max_distance.ok()) return Fail(max_distance.status());
  const auto threads = IntFlagIn(flags, "threads", 0,
                                 static_cast<int64_t>(exec::kMaxWorkers));
  if (!threads.ok()) return Fail(threads.status());
  const std::string metrics_path = flags.GetString("metrics_json");
  const std::string trace_path = flags.GetString("trace_out");
  // Long attacks stop at a target boundary on SIGINT/SIGTERM and still
  // flush the partial --out rows and --metrics_json/--trace_out outputs.
  service::InstallShutdownSignalHandlers();
  if (!trace_path.empty()) {
    obs::SetCurrentThreadName("main");
    obs::StartTracing();
  }
  auto target = hin::LoadGraphAuto(flags.GetString("target"));
  if (!target.ok()) return Fail(target.status());
  auto aux = hin::LoadGraphAuto(flags.GetString("aux"));
  if (!aux.ok()) return Fail(aux.status());
  const size_t num_targets = target.value().num_vertices();
  const size_t num_aux = aux.value().num_vertices();
  std::vector<hin::VertexId> truth;
  if (const std::string path = flags.GetString("mapping"); !path.empty()) {
    auto mapping = LoadMapping(path, num_targets, num_aux);
    if (!mapping.ok()) return Fail(mapping.status());
    truth = std::move(mapping).value();
  }
  const std::string out_path = flags.GetString("out");
  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) return Fail(util::Status::IoError("cannot write " + out_path));
  }

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

  // Every target is scored once, on a pool of --threads workers. Each
  // target's answer lands in its own slots; the rows and the scores below
  // read them in target order, so the output does not depend on --threads.
  auto pool = std::make_unique<exec::Executor>(
      exec::ResolveThreads(static_cast<size_t>(threads.value())));
  eval::ParallelEvalOptions options;
  options.executor = pool.get();
  options.heartbeat_seconds = flags.GetDouble("heartbeat_sec");
  options.cancel = &service::ShutdownToken();
  std::vector<size_t> candidate_counts(num_targets, 0);
  std::vector<hin::VertexId> unique_match(num_targets, hin::kInvalidVertex);
  std::vector<uint8_t> contains_truth(num_targets, 0);
  const core::DehinStats stats_before = dehin.stats();
  const size_t evaluated = eval::AttackTargets(
      dehin, published, static_cast<int>(max_distance.value()), options,
      [&](hin::VertexId v, const std::vector<hin::VertexId>& candidates) {
        candidate_counts[v] = candidates.size();
        if (candidates.size() == 1) unique_match[v] = candidates[0];
        if (!truth.empty()) {
          contains_truth[v] = std::binary_search(candidates.begin(),
                                                 candidates.end(), truth[v]);
        }
      });
  const core::DehinStats stats = dehin.stats() - stats_before;

  // The --out rows go through std::to_chars into one buffer, written with
  // one call: per-field stream insertion took about 30 ms for 50,000 rows
  // on a 4-vCPU host, a tenth of the whole n=1 attack.
  std::string rows = "target_id\tnum_candidates\tcandidates_if_unique\n";
  size_t unique = 0;
  size_t correct = 0;
  size_t contained = 0;
  double candidate_sum = 0.0;
  for (hin::VertexId v = 0; v < evaluated; ++v) {
    if (out.is_open()) {
      char row[64];
      char* end = std::to_chars(row, row + 20, v).ptr;
      *end++ = '\t';
      end = std::to_chars(end, end + 20, candidate_counts[v]).ptr;
      *end++ = '\t';
      if (candidate_counts[v] == 1) {
        end = std::to_chars(end, end + 20, unique_match[v]).ptr;
      }
      *end++ = '\n';
      rows.append(row, end);
    }
    candidate_sum += static_cast<double>(candidate_counts[v]);
    if (candidate_counts[v] == 1) ++unique;
    if (contains_truth[v]) {
      ++contained;
      if (candidate_counts[v] == 1) ++correct;
    }
  }
  if (out.is_open()) {
    out.write(rows.data(), static_cast<std::streamsize>(rows.size()));
    out.close();
    if (!out) return Fail(util::Status::IoError("cannot write " + out_path));
  }
  if (evaluated < num_targets) {
    std::printf("interrupted by signal after %zu/%zu targets; partial "
                "results follow\n",
                evaluated, num_targets);
  }
  const double scored = static_cast<double>(std::max<size_t>(1, evaluated));
  std::printf("targets: %zu; uniquely matched: %zu (%.1f%%); mean candidate "
              "set: %.1f of %zu\n",
              evaluated, unique, 100.0 * static_cast<double>(unique) / scored,
              candidate_sum / scored, num_aux);
  if (!truth.empty()) {
    std::printf("precision: %.1f%%; truth contained: %zu\n",
                100.0 * static_cast<double>(correct) / scored, contained);
  }
  std::printf("prefilter rejects: %.1f%%; cache hits: %.1f%%\n",
              100.0 * stats.PrefilterRejectRate(),
              100.0 * stats.CacheHitRate());
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
  const auto max_distance =
      IntFlagIn(flags, "max_distance", 0, service::kMaxDistance);
  if (!max_distance.ok()) return Fail(max_distance.status());
  auto graph = hin::LoadGraphAuto(flags.GetString("in"));
  if (!graph.ok()) return Fail(graph.status());
  core::SignatureOptions options;
  const size_t num_attrs = graph.value().num_attributes(0);
  for (hin::AttributeId a = 0; a < num_attrs; ++a) {
    options.attributes.push_back(a);
  }
  options.link_types = core::AllLinkTypes(graph.value());
  const auto ladder = core::NetworkPrivacyRisk(
      graph.value(), options, static_cast<int>(max_distance.value()));
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
  const auto port = IntFlagIn(flags, "port", 0, 65535);
  if (!port.ok()) return Fail(port.status());
  if (port.value() > 0) {
    return RunLiveStats(flags.GetString("host"),
                        static_cast<uint16_t>(port.value()),
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
  const auto workers = IntFlagIn(flags, "workers", 0,
                                 static_cast<int64_t>(exec::kMaxWorkers));
  if (!workers.ok()) return Fail(workers.status());
  const auto max_distance =
      IntFlagIn(flags, "max_distance", 0, service::kMaxDistance);
  if (!max_distance.ok()) return Fail(max_distance.status());
  const auto port = IntFlagIn(flags, "port", 0, 65535);
  if (!port.ok()) return Fail(port.status());
  const auto queue_capacity = IntFlagIn(
      flags, "queue_capacity", 1, std::numeric_limits<int64_t>::max());
  if (!queue_capacity.ok()) return Fail(queue_capacity.status());
  const std::string trace_path = flags.GetString("trace_out");
  if (!trace_path.empty()) {
    obs::SetCurrentThreadName("main");
    obs::StartTracing();
  }
  auto target = hin::LoadGraphAuto(flags.GetString("target"));
  if (!target.ok()) return Fail(target.status());
  const std::string aux_path = flags.GetString("aux");
  auto aux = hin::LoadGraphAuto(aux_path);
  if (!aux.ok()) return Fail(aux.status());
  if (aux.value().is_mapped()) {
    std::printf("auxiliary graph mapped from snapshot %s (%zu vertices, "
                "%zu links)\n",
                aux_path.c_str(), aux.value().num_vertices(),
                aux.value().num_edges());
  }

  service::ServerConfig config;
  config.host = flags.GetString("host");
  config.port = static_cast<uint16_t>(port.value());
  config.num_workers = static_cast<size_t>(workers.value());
  config.queue_capacity = static_cast<size_t>(queue_capacity.value());
  config.default_max_distance = static_cast<int>(max_distance.value());
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
  std::printf("serving %s (aux %s) on %s:%u — %zu workers, queue %zu; "
              "SIGINT/SIGTERM drains gracefully\n",
              flags.GetString("target").c_str(), aux_path.c_str(),
              config.host.c_str(), static_cast<unsigned>(server.port()),
              config.num_workers, config.queue_capacity);
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
  const auto port = IntFlagIn(flags, "port", 1, 65535);
  if (!port.ok()) return Fail(port.status());
  // -1 = absent; the largest id is the one below kInvalidVertex.
  const auto target_id =
      IntFlagIn(flags, "target_id", -1, int64_t{hin::kInvalidVertex} - 1);
  if (!target_id.ok()) return Fail(target_id.status());
  const auto max_distance =
      IntFlagIn(flags, "max_distance", -1, service::kMaxDistance);
  if (!max_distance.ok()) return Fail(max_distance.status());
  auto client = service::Client::Connect(flags.GetString("host"),
                                         static_cast<uint16_t>(port.value()));
  if (!client.ok()) return Fail(client.status());

  service::Request request;
  request.id = 1;
  request.method = *method;
  if (target_id.value() >= 0) {
    request.target = static_cast<hin::VertexId>(target_id.value());
    request.has_target = true;
  }
  request.max_distance = static_cast<int>(max_distance.value());
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
