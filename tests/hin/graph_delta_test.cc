#include "hin/graph_delta.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hin/graph.h"
#include "hin/graph_builder.h"
#include "hin/schema.h"
#include "hin/snapshot.h"
#include "util/line_reader.h"
#include "util/random.h"
#include "temp_path.h"

// A counting operator new for this test binary: while g_counting is set on
// a thread, the bytes that thread allocates add up in g_counted_bytes. The
// scalar forms are all replaced, so every block they hand out is a malloc
// block freed by free() (which GCC's mismatch warning cannot see).
namespace {
thread_local bool g_counting = false;
thread_local size_t g_counted_bytes = 0;
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) g_counted_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) g_counted_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hinpriv::hin {
namespace {

using testing_support::TempPath;

// Mirrors the t.qq shape in miniature: one growable attribute, one
// non-growable link type, one growable-strength link type that allows
// self-links.
NetworkSchema DeltaSchema() {
  NetworkSchema schema;
  const EntityTypeId user = schema.AddEntityType("User");
  schema.AddAttribute(user, "yob", false);
  schema.AddAttribute(user, "count", true);
  schema.AddLinkType("follow", user, user, false, false, false);
  schema.AddLinkType("mention", user, user, true, true, true);
  return schema;
}

Graph BuildBase() {
  GraphBuilder builder(DeltaSchema());
  builder.AddVertices(0, 4);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(builder.SetAttribute(v, 0, 1980 + static_cast<int>(v)).ok());
    EXPECT_TRUE(builder.SetAttribute(v, 1, 10 * static_cast<int>(v)).ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 1, 5).ok());
  EXPECT_TRUE(builder.AddEdge(3, 1, 1, 2).ok());
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

GraphDelta SampleDelta() {
  GraphDelta delta;
  delta.base_num_vertices = 4;
  delta.new_vertices.push_back({0, {1999, 7}});
  delta.new_vertices.push_back({0, {2001, 0}});
  delta.attr_bumps.push_back({1, 1, 3});
  // Strength fold onto the existing mention edge plus brand-new edges,
  // including ones touching the appended vertices.
  delta.edge_adds.push_back({1, 0, 2, 4});
  delta.edge_adds.push_back({0, 1, 3, 1});
  delta.edge_adds.push_back({0, 4, 0, 1});
  delta.edge_adds.push_back({1, 3, 5, 9});
  return delta;
}

void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.NumVerticesOfType(0), b.NumVerticesOfType(0));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.entity_type(v), b.entity_type(v));
    EXPECT_EQ(a.dense_index(v), b.dense_index(v));
    EXPECT_EQ(a.TotalOutDegree(v), b.TotalOutDegree(v));
    for (AttributeId attr = 0; attr < 2; ++attr) {
      EXPECT_EQ(a.attribute(v, attr), b.attribute(v, attr))
          << "vertex " << v << " attr " << attr;
    }
    for (LinkTypeId lt = 0; lt < a.num_link_types(); ++lt) {
      ASSERT_EQ(a.OutDegree(lt, v), b.OutDegree(lt, v));
      ASSERT_EQ(a.InDegree(lt, v), b.InDegree(lt, v));
      const auto out_a = a.OutEdges(lt, v);
      const auto out_b = b.OutEdges(lt, v);
      ASSERT_EQ(out_a.size(), out_b.size()) << "out lt=" << lt << " v=" << v;
      for (size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].neighbor, out_b[i].neighbor);
        EXPECT_EQ(out_a[i].strength, out_b[i].strength);
      }
      const auto in_a = a.InEdges(lt, v);
      const auto in_b = b.InEdges(lt, v);
      ASSERT_EQ(in_a.size(), in_b.size()) << "in lt=" << lt << " v=" << v;
      for (size_t i = 0; i < in_a.size(); ++i) {
        EXPECT_EQ(in_a[i].neighbor, in_b[i].neighbor);
        EXPECT_EQ(in_a[i].strength, in_b[i].strength);
      }
    }
  }
}

// Two chained batches: SampleDelta() and an attr bump on its new vertex.
std::string SampleStreamText() {
  std::vector<GraphDelta> deltas;
  deltas.push_back(SampleDelta());
  GraphDelta second;
  second.base_num_vertices = 6;
  second.attr_bumps.push_back({5, 1, 1});
  deltas.push_back(second);
  std::ostringstream out;
  EXPECT_TRUE(SaveDeltaStream(deltas, out).ok());
  return out.str();
}

util::Status LoadText(const std::string& text) {
  std::istringstream in(text);
  return LoadDeltaStream(in).status();
}

TEST(GraphDeltaTest, StreamRoundTrip) {
  std::istringstream in(SampleStreamText());
  auto loaded = LoadDeltaStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);

  const GraphDelta& d = loaded.value()[0];
  EXPECT_EQ(d.base_num_vertices, 4u);
  ASSERT_EQ(d.new_vertices.size(), 2u);
  EXPECT_EQ(d.new_vertices[0].type, 0);
  ASSERT_EQ(d.new_vertices[0].attrs.size(), 2u);
  EXPECT_EQ(d.new_vertices[0].attrs[0], 1999);
  ASSERT_EQ(d.attr_bumps.size(), 1u);
  EXPECT_EQ(d.attr_bumps[0].v, 1u);
  EXPECT_EQ(d.attr_bumps[0].delta, 3);
  ASSERT_EQ(d.edge_adds.size(), 4u);
  EXPECT_EQ(d.edge_adds[3].strength, 9u);
  EXPECT_EQ(loaded.value()[1].base_num_vertices, 6u);
  EXPECT_TRUE(loaded.value()[1].new_vertices.empty());
}

TEST(GraphDeltaTest, LoadRejectsCorruptStream) {
  std::istringstream bad_magic("not-a-delta 1\n");
  EXPECT_FALSE(LoadDeltaStream(bad_magic).ok());
  // Truncation mid-batch must not pass as an empty stream.
  std::istringstream truncated(
      "hinpriv-delta 1\nbatch 4\nnew_vertices 1\n");
  EXPECT_FALSE(LoadDeltaStream(truncated).ok());
}

// Section counts come from the file. A false one must fail at its first
// missing row rather than reserve that many rows up front (which throws
// length_error or bad_alloc out of the loader). One case per section.
TEST(GraphDeltaTest, HostileNewVertexCountIsCorruption) {
  EXPECT_EQ(LoadText("hinpriv-delta 1\nbatch 0\n"
                     "new_vertices 18446744073709551615\n")
                .code(),
            util::Status::Code::kCorruption);
}

TEST(GraphDeltaTest, HostileAttrBumpCountIsCorruption) {
  EXPECT_EQ(LoadText("hinpriv-delta 1\nbatch 0\nnew_vertices 0\n"
                     "attr_bumps 18446744073709551615\n")
                .code(),
            util::Status::Code::kCorruption);
}

TEST(GraphDeltaTest, HostileEdgeAddCountIsCorruption) {
  EXPECT_EQ(LoadText("hinpriv-delta 1\nbatch 0\nnew_vertices 0\n"
                     "attr_bumps 0\nedge_adds 100000000000\n")
                .code(),
            util::Status::Code::kCorruption);
}

// Values their target type cannot hold are corruption, not a wrap: a
// vertex id of 2^32 + 1 would otherwise become vertex 1, pass validation
// and grow the wrong user. One case per narrowed field type.
constexpr char kBatchHeader[] = "hinpriv-delta 1\nbatch 4\n";

TEST(GraphDeltaTest, VertexIdBeyondUint32IsCorruption) {
  EXPECT_EQ(LoadText(std::string(kBatchHeader) +
                     "new_vertices 0\nattr_bumps 0\nedge_adds 1\n"
                     "0 4294967297 2 1\nend\ndone\n")
                .code(),
            util::Status::Code::kCorruption);
}

TEST(GraphDeltaTest, StrengthBeyondUint32IsCorruption) {
  EXPECT_EQ(LoadText(std::string(kBatchHeader) +
                     "new_vertices 0\nattr_bumps 0\nedge_adds 1\n"
                     "1 0 2 4294967296\nend\ndone\n")
                .code(),
            util::Status::Code::kCorruption);
}

TEST(GraphDeltaTest, LinkTypeBeyondUint16IsCorruption) {
  EXPECT_EQ(LoadText(std::string(kBatchHeader) +
                     "new_vertices 0\nattr_bumps 0\nedge_adds 1\n"
                     "65536 0 2 1\nend\ndone\n")
                .code(),
            util::Status::Code::kCorruption);
}

TEST(GraphDeltaTest, AttributeValueBeyondInt32IsCorruption) {
  EXPECT_EQ(LoadText(std::string(kBatchHeader) +
                     "new_vertices 1\n0 2147483648 0\nattr_bumps 0\n"
                     "edge_adds 0\nend\ndone\n")
                .code(),
            util::Status::Code::kCorruption);
}

// Exhaustive truncation sweep: every prefix fails with a Status, except
// the one that drops only the final newline ("done" still terminates).
TEST(GraphDeltaTest, EveryTruncationLengthFailsCleanly) {
  const std::string text = SampleStreamText();
  ASSERT_EQ(text.substr(text.size() - 5), "done\n");
  for (size_t keep = 0; keep < text.size(); ++keep) {
    const util::Status status = LoadText(text.substr(0, keep));
    EXPECT_EQ(status.ok(), keep == text.size() - 1)
        << "prefix of " << keep << " bytes: " << status.ToString();
  }
}

// Seeded byte-flip fuzz: overwriting any byte with any value must either
// fail with a Status or still parse — never crash or throw.
TEST(GraphDeltaTest, RandomByteCorruptionNeverCrashes) {
  const std::string text = SampleStreamText();
  util::Rng fuzz(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupted = text;
    corrupted[fuzz.UniformU64(corrupted.size())] =
        static_cast<char>(fuzz.UniformU64(256));
    std::istringstream in(corrupted);
    auto loaded = LoadDeltaStream(in);
    if (loaded.ok()) {
      EXPECT_LE(loaded.value().size(), 2u);
    }
  }
}

// --- Round trips through the chunked reader --------------------------------

// Two batches with rows enough to span several reader chunks; edge rows
// come shuffled, with duplicates, as a crawl would log them.
std::string MultiChunkStreamText() {
  util::Rng rng(41);
  std::vector<GraphDelta> deltas(2);
  for (size_t b = 0; b < deltas.size(); ++b) {
    GraphDelta& d = deltas[b];
    d.base_num_vertices = 5000 + 400 * b;
    for (int i = 0; i < 400; ++i) {
      d.new_vertices.push_back(
          {0, {static_cast<AttrValue>(1950 + rng.UniformU64(60)),
               -static_cast<AttrValue>(rng.UniformU64(3))}});
    }
    for (int i = 0; i < 2000; ++i) {
      d.attr_bumps.push_back({static_cast<VertexId>(rng.UniformU64(5000)), 1,
                              static_cast<AttrValue>(1 + rng.UniformU64(9))});
    }
    for (int i = 0; i < 9000; ++i) {
      d.edge_adds.push_back(
          {static_cast<LinkTypeId>(rng.UniformU64(2)),
           static_cast<VertexId>(rng.UniformU64(5400)),
           static_cast<VertexId>(rng.UniformU64(5400)),
           static_cast<Strength>(1 + rng.UniformU64(4000000000u))});
      if (rng.Bernoulli(0.1)) d.edge_adds.push_back(d.edge_adds.back());
    }
    rng.Shuffle(&d.edge_adds);
  }
  std::ostringstream out;
  EXPECT_TRUE(SaveDeltaStream(deltas, out).ok());
  EXPECT_GT(out.str().size(), 3 * util::LineReader::kChunkBytes);
  return out.str();
}

// The loaded stream's canonical text, or the load's error.
std::string Reserialize(const std::string& text) {
  std::istringstream in(text);
  auto loaded = LoadDeltaStream(in);
  if (!loaded.ok()) return "load failed: " + loaded.status().ToString();
  std::ostringstream out;
  EXPECT_TRUE(SaveDeltaStream(loaded.value(), out).ok());
  return out.str();
}

// Rows keep their order and multiplicity: the loader stores them as they
// come, and ApplyDelta's merge folds duplicates later.
TEST(GraphDeltaTest, ShuffledAndDuplicatedRowsRoundTrip) {
  const std::string text = MultiChunkStreamText();
  EXPECT_EQ(Reserialize(text), text);
}

TEST(GraphDeltaTest, CrlfBlankLinesAndTrailingSpacesRoundTrip) {
  const std::string text = MultiChunkStreamText();
  util::Rng rng(42);
  const char* pads[] = {"", " ", "\t", "  \t "};
  const char* blanks[] = {"\r\n", " \r\n", "\t\r\n", "\n"};
  std::string mangled;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (rng.Bernoulli(0.1)) mangled += blanks[rng.UniformU64(4)];
    mangled += pads[rng.UniformU64(4)] + line + pads[rng.UniformU64(4)] +
               "\r\n";
  }
  EXPECT_EQ(Reserialize(mangled), text);
}

// Leading blank lines shift every row by one more byte per pass, so the
// reader's chunk boundaries cut rows at every offset within them.
TEST(GraphDeltaTest, RowsStraddlingChunkBoundariesRoundTrip) {
  const std::string text = MultiChunkStreamText();
  for (size_t shift = 0; shift < 40; ++shift) {
    ASSERT_EQ(Reserialize(std::string(shift, '\n') + text), text)
        << "shifted by " << shift;
  }
}

// SampleDelta() applied to BuildBase(), built from scratch over the union
// edge multiset.
Graph BuildSampleRebuild() {
  GraphBuilder builder(DeltaSchema());
  builder.AddVertices(0, 6);
  const int base_yob[] = {1980, 1981, 1982, 1983, 1999, 2001};
  const int base_count[] = {0, 10 + 3, 20, 30, 7, 0};
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(builder.SetAttribute(v, 0, base_yob[v]).ok());
    EXPECT_TRUE(builder.SetAttribute(v, 1, base_count[v]).ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0).ok());
  EXPECT_TRUE(builder.AddEdge(1, 3, 0).ok());
  EXPECT_TRUE(builder.AddEdge(4, 0, 0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 1, 5 + 4).ok());
  EXPECT_TRUE(builder.AddEdge(3, 1, 1, 2).ok());
  EXPECT_TRUE(builder.AddEdge(3, 5, 1, 9).ok());
  auto rebuilt = std::move(builder).Build();
  EXPECT_TRUE(rebuilt.ok());
  return std::move(rebuilt).value();
}

// The tentpole identity: applying a delta in place is bit-identical to
// rebuilding the grown graph from scratch over the union edge multiset.
TEST(GraphDeltaTest, ApplyMatchesFromScratchRebuild) {
  Graph grown = BuildBase();
  const GraphDelta delta = SampleDelta();
  ASSERT_TRUE(GraphBuilder::ApplyDelta(&grown, delta).ok());
  ASSERT_EQ(grown.num_vertices(), 6u);
  ExpectGraphsIdentical(grown, BuildSampleRebuild());
  EXPECT_EQ(grown.NumVerticesOfType(0), 6u);
}

TEST(GraphDeltaTest, EmptyDeltaIsIdentity) {
  Graph grown = BuildBase();
  GraphDelta delta;
  delta.base_num_vertices = 4;
  ASSERT_TRUE(GraphBuilder::ApplyDelta(&grown, delta).ok());
  ExpectGraphsIdentical(grown, BuildBase());
}

// A mapped base takes the same delta path as a heap one: the mapping is
// never written, and the grown graph equals the rebuild.
TEST(GraphDeltaTest, MappedGraphGrowsLikeRebuild) {
  const TempPath temp("base.snap");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphSnapshot(BuildBase(), path).ok());
  auto mapped = LoadGraphSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped.value().is_mapped());
  ASSERT_TRUE(GraphBuilder::ApplyDelta(&mapped.value(), SampleDelta()).ok());
  ExpectGraphsIdentical(mapped.value(), BuildSampleRebuild());
  // The file still holds the base.
  auto reloaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectGraphsIdentical(reloaded.value(), BuildBase());
}

TEST(GraphDeltaTest, ValidationRejectsBadDeltas) {
  Graph base = BuildBase();

  GraphDelta wrong_base;
  wrong_base.base_num_vertices = 7;
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, wrong_base).ok());

  GraphDelta bad_bump;  // attr 0 (yob) is not growable
  bad_bump.base_num_vertices = 4;
  bad_bump.attr_bumps.push_back({1, 0, 3});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, bad_bump).ok());

  GraphDelta negative_bump;
  negative_bump.base_num_vertices = 4;
  negative_bump.attr_bumps.push_back({1, 1, -2});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, negative_bump).ok());

  GraphDelta out_of_range_edge;
  out_of_range_edge.base_num_vertices = 4;
  out_of_range_edge.edge_adds.push_back({0, 0, 9, 1});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, out_of_range_edge).ok());

  // follow is non-growable: re-adding an existing base edge must be
  // rejected before any mutation, as must an in-delta duplicate.
  GraphDelta dup_vs_base;
  dup_vs_base.base_num_vertices = 4;
  dup_vs_base.edge_adds.push_back({0, 0, 1, 1});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, dup_vs_base).ok());

  GraphDelta dup_in_delta;
  dup_in_delta.base_num_vertices = 4;
  dup_in_delta.edge_adds.push_back({0, 1, 2, 1});
  dup_in_delta.edge_adds.push_back({0, 1, 2, 1});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, dup_in_delta).ok());

  GraphDelta self_follow;  // follow disallows self-links
  self_follow.base_num_vertices = 4;
  self_follow.edge_adds.push_back({0, 2, 2, 1});
  EXPECT_FALSE(GraphBuilder::ApplyDelta(&base, self_follow).ok());

  // A failed validation never mutates: the graph still equals the base.
  ExpectGraphsIdentical(base, BuildBase());
}

// The union multiset behind a grown graph, kept beside it so that a
// reference can be built from scratch after every batch.
struct UnionMultiset {
  std::vector<std::array<AttrValue, 2>> attrs;  // yob, count per vertex
  std::vector<GraphDelta::EdgeAdd> edges;

  Graph Build() const {
    GraphBuilder builder(DeltaSchema());
    builder.AddVertices(0, attrs.size());
    for (VertexId v = 0; v < attrs.size(); ++v) {
      EXPECT_TRUE(builder.SetAttribute(v, 0, attrs[v][0]).ok());
      EXPECT_TRUE(builder.SetAttribute(v, 1, attrs[v][1]).ok());
    }
    for (const GraphDelta::EdgeAdd& e : edges) {
      EXPECT_TRUE(builder.AddEdge(e.src, e.dst, e.link, e.strength).ok());
    }
    auto graph = std::move(builder).Build();
    EXPECT_TRUE(graph.ok());
    return std::move(graph).value();
  }

  void Absorb(const GraphDelta& delta) {
    for (const GraphDelta::NewVertex& nv : delta.new_vertices) {
      attrs.push_back({nv.attrs[0], nv.attrs[1]});
    }
    for (const GraphDelta::AttrBump& b : delta.attr_bumps) {
      attrs[b.v][b.attr] += b.delta;
    }
    edges.insert(edges.end(), delta.edge_adds.begin(), delta.edge_adds.end());
  }
};

// Adds `count` random edges of DeltaSchema()'s two link types among
// vertices [0, n): follows never repeat a pair and never self-link (the
// link type is not growable), mentions repeat and self-link freely.
void AddRandomEdges(const Graph* graph, size_t n, size_t count,
                    util::Rng* rng, std::vector<GraphDelta::EdgeAdd>* out) {
  std::set<std::pair<VertexId, VertexId>> follows;
  for (size_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng->UniformU64(n));
    const auto dst = static_cast<VertexId>(rng->UniformU64(n));
    if (rng->Bernoulli(0.5)) {
      out->push_back({1, src, dst, static_cast<Strength>(1 + rng->UniformU64(4))});
      continue;
    }
    const bool exists = graph != nullptr && src < graph->num_vertices() &&
                        graph->HasEdge(0, src, dst);
    if (src == dst || exists || !follows.insert({src, dst}).second) continue;
    out->push_back({0, src, dst, 1});
  }
}

UnionMultiset RandomBase(size_t n, util::Rng* rng) {
  UnionMultiset base;
  for (size_t v = 0; v < n; ++v) {
    base.attrs.push_back({static_cast<AttrValue>(1950 + rng->UniformU64(50)),
                          static_cast<AttrValue>(rng->UniformU64(100))});
  }
  AddRandomEdges(nullptr, n, 6 * n, rng, &base.edges);
  return base;
}

// A batch of a few new users, count bumps, and edge adds that touch both
// base and new users.
GraphDelta RandomBatch(const Graph& graph, util::Rng* rng) {
  GraphDelta delta;
  delta.base_num_vertices = graph.num_vertices();
  const size_t num_new = rng->UniformU64(12);
  for (size_t i = 0; i < num_new; ++i) {
    delta.new_vertices.push_back(
        {0, {static_cast<AttrValue>(1950 + rng->UniformU64(50)), 0}});
  }
  for (size_t i = 0; i < 10; ++i) {
    delta.attr_bumps.push_back(
        {static_cast<VertexId>(rng->UniformU64(graph.num_vertices())), 1,
         static_cast<AttrValue>(1 + rng->UniformU64(5))});
  }
  AddRandomEdges(&graph, graph.num_vertices() + num_new, 40, rng,
                 &delta.edge_adds);
  return delta;
}

std::string SnapshotBytes(const Graph& graph, const std::string& path) {
  EXPECT_TRUE(SaveGraphSnapshot(graph, path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The overlay against the only independent reference there is: after
// every batch of a 24-batch stream, a heap base and a mapped base grown
// by ApplyDelta must equal GraphBuilder::Build over the union multiset in
// every accessor, and save to the same snapshot bytes. The stream patches
// enough runs to cross the V/4 compaction threshold on the way.
TEST(GraphDeltaTest, BatchStreamMatchesRebuildOnHeapAndMappedBases) {
  util::Rng rng(71);
  UnionMultiset all = RandomBase(400, &rng);
  Graph heap = all.Build();
  const TempPath stem("stream");
  const std::string base_path = stem.path() + "_base.snap";
  const std::string grown_path = stem.path() + "_grown.snap";
  const std::string rebuilt_path = stem.path() + "_rebuilt.snap";
  ASSERT_TRUE(SaveGraphSnapshot(heap, base_path).ok());
  auto mapped = LoadGraphSnapshot(base_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  size_t most_patched_runs = 0;
  for (int b = 0; b < 24; ++b) {
    const GraphDelta delta = RandomBatch(heap, &rng);
    ASSERT_TRUE(GraphBuilder::ApplyDelta(&heap, delta).ok()) << "batch " << b;
    ASSERT_TRUE(GraphBuilder::ApplyDelta(&mapped.value(), delta).ok())
        << "batch " << b;
    all.Absorb(delta);
    const Graph rebuilt = all.Build();
    SCOPED_TRACE("batch " + std::to_string(b));
    ExpectGraphsIdentical(heap, rebuilt);
    ExpectGraphsIdentical(mapped.value(), rebuilt);
    const std::string expected = SnapshotBytes(rebuilt, rebuilt_path);
    EXPECT_TRUE(SnapshotBytes(heap, grown_path) == expected);
    EXPECT_TRUE(SnapshotBytes(mapped.value(), grown_path) == expected);
    most_patched_runs =
        std::max(most_patched_runs, heap.overlay_stats().patched_runs);
  }
  EXPECT_GT(most_patched_runs, 0u);
  EXPECT_GT(heap.overlay_stats().compactions, 0u);
  EXPECT_EQ(mapped.value().overlay_stats().compactions,
            heap.overlay_stats().compactions);
}

// --- Prepare outside the lock, commit under it ------------------------------

// Sums every accessor's view of `graph`, so a reader touches each run,
// patch row and attribute column.
uint64_t Sweep(const Graph& graph) {
  uint64_t sum = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (LinkTypeId lt = 0; lt < graph.num_link_types(); ++lt) {
      for (const Edge& e : graph.OutEdges(lt, v)) {
        sum += e.neighbor + e.strength;
      }
      for (const Edge& e : graph.InEdges(lt, v)) {
        sum += e.neighbor + e.strength;
      }
    }
    sum += static_cast<uint64_t>(graph.attribute(v, 0) + graph.attribute(v, 1));
  }
  return sum;
}

// Prepare writes nothing the graph's readers read: reader threads sweep
// the graph while PrepareDelta runs, on a heap and on a mapped base (under
// TSan this is the race check), and the committed graph equals the
// rebuild after every batch.
TEST(GraphDeltaTest, PrepareRacesReaders) {
  util::Rng rng(83);
  UnionMultiset all = RandomBase(400, &rng);
  Graph heap = all.Build();
  const TempPath snap("race.snap");
  ASSERT_TRUE(SaveGraphSnapshot(heap, snap.path()).ok());
  auto mapped = LoadGraphSnapshot(snap.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  constexpr int kReaders = 2;
  for (int b = 0; b < 8; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const GraphDelta delta = RandomBatch(heap, &rng);
    for (Graph* graph : {&heap, &mapped.value()}) {
      std::atomic<int> started{0};
      std::atomic<bool> done{false};
      std::vector<uint64_t> sums(kReaders, 0);
      std::vector<std::thread> readers;
      for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([graph, r, &started, &done, &sums] {
          sums[r] += Sweep(*graph);
          started.fetch_add(1);
          while (!done.load()) sums[r] += Sweep(*graph);
        });
      }
      while (started.load() < kReaders) std::this_thread::yield();
      // Several prepares, so the readers overlap every step of one.
      util::Result<PreparedDelta> prepared =
          GraphBuilder::PrepareDelta(*graph, delta);
      for (int i = 0; i < 4 && prepared.ok(); ++i) {
        prepared = GraphBuilder::PrepareDelta(*graph, delta);
      }
      done.store(true);
      for (std::thread& reader : readers) reader.join();
      for (const uint64_t sum : sums) EXPECT_GT(sum, 0u);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      ASSERT_TRUE(GraphBuilder::CommitDelta(graph, &prepared.value()).ok());
    }
    all.Absorb(delta);
    const Graph rebuilt = all.Build();
    ExpectGraphsIdentical(heap, rebuilt);
    ExpectGraphsIdentical(mapped.value(), rebuilt);
  }
}

// A batch prepared before another one committed describes a state the
// graph has left: the commit refuses it and changes nothing, and so it
// does for a batch prepared against another graph.
TEST(GraphDeltaTest, StalePreparedDeltaIsRefused) {
  Graph graph = BuildBase();
  GraphDelta other;  // same vertex count, so only the commit count differs
  other.base_num_vertices = 4;
  other.edge_adds.push_back({1, 2, 0, 6});
  other.attr_bumps.push_back({3, 1, 2});
  auto stale = GraphBuilder::PrepareDelta(graph, SampleDelta());
  auto first = GraphBuilder::PrepareDelta(graph, other);
  ASSERT_TRUE(stale.ok() && first.ok());
  ASSERT_TRUE(GraphBuilder::CommitDelta(&graph, &first.value()).ok());
  EXPECT_EQ(GraphBuilder::CommitDelta(&graph, &stale.value()).code(),
            util::Status::Code::kFailedPrecondition);
  EXPECT_EQ(GraphBuilder::CommitDelta(&graph, &first.value()).code(),
            util::Status::Code::kFailedPrecondition);

  Graph twin = BuildBase();
  auto foreign = GraphBuilder::PrepareDelta(twin, other);
  ASSERT_TRUE(foreign.ok());
  EXPECT_EQ(GraphBuilder::CommitDelta(&graph, &foreign.value()).code(),
            util::Status::Code::kFailedPrecondition);

  // BuildBase() plus `other`, built from scratch.
  GraphBuilder builder(DeltaSchema());
  builder.AddVertices(0, 4);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(builder.SetAttribute(v, 0, 1980 + static_cast<int>(v)).ok());
    EXPECT_TRUE(
        builder.SetAttribute(v, 1, 10 * static_cast<int>(v) + (v == 3 ? 2 : 0))
            .ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 1, 0).ok());
  EXPECT_TRUE(builder.AddEdge(2, 3, 0).ok());
  EXPECT_TRUE(builder.AddEdge(0, 2, 1, 5).ok());
  EXPECT_TRUE(builder.AddEdge(3, 1, 1, 2).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, 1, 6).ok());
  auto expected = std::move(builder).Build();
  ASSERT_TRUE(expected.ok());
  ExpectGraphsIdentical(graph, expected.value());
}

// Bytes a prepare and the commit after it allocated on this thread.
struct ApplyBytes {
  size_t prepare = 0;
  size_t commit = 0;
};

ApplyBytes CountedApply(Graph* graph, const GraphDelta& delta) {
  ApplyBytes bytes;
  g_counted_bytes = 0;
  g_counting = true;
  util::Result<PreparedDelta> prepared =
      GraphBuilder::PrepareDelta(*graph, delta);
  g_counting = false;
  bytes.prepare = g_counted_bytes;
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!prepared.ok()) return bytes;
  g_counted_bytes = 0;
  g_counting = true;
  const util::Status committed =
      GraphBuilder::CommitDelta(graph, &prepared.value());
  g_counting = false;
  bytes.commit = g_counted_bytes;
  EXPECT_TRUE(committed.ok()) << committed.ToString();
  return bytes;
}

// The commit runs under the service's exclusive hold, so what it may cost
// is bounded here without a clock: it allocates nothing that grows with
// the graph or a run. The base has 10,000 vertices and a hub whose
// mention in-run holds 10,000 entries; merging into that run under the
// hold would allocate 80 KB.
constexpr size_t kCommitBytesBound = 1024;

TEST(GraphDeltaTest, CommitAllocationIsBoundedIndependentOfGraphAndRunSize) {
  constexpr VertexId kVertices = 10000;
  constexpr VertexId kHub = 0;
  constexpr LinkTypeId kFollow = 0, kMention = 1;
  UnionMultiset all;
  for (VertexId v = 0; v < kVertices; ++v) {
    all.attrs.push_back({1980, 0});
    all.edges.push_back({kMention, v, kHub, 1});
  }
  Graph graph = all.Build();
  ASSERT_EQ(graph.InDegree(kMention, kHub), kVertices);
  const auto apply = [&](const GraphDelta& delta) {
    const ApplyBytes bytes = CountedApply(&graph, delta);
    EXPECT_LE(bytes.commit, kCommitBytesBound);
    all.Absorb(delta);
    ExpectGraphsIdentical(graph, all.Build());
    return bytes;
  };
  const auto new_user = [](GraphDelta* delta) {
    delta->new_vertices.push_back({0, {1990, 0}});
    return static_cast<VertexId>(delta->base_num_vertices +
                                 delta->new_vertices.size() - 1);
  };

  {
    SCOPED_TRACE("first delta: copies the columns, patches the hub");
    GraphDelta delta;
    delta.base_num_vertices = graph.num_vertices();
    delta.edge_adds.push_back({kMention, new_user(&delta), kHub, 1});
    // The counter sees the hub's run merged outside the commit.
    EXPECT_GE(apply(delta).prepare, kVertices * sizeof(Edge));
  }
  {
    SCOPED_TRACE("2,600 new follow runs take both follow adjacencies past V/4");
    GraphDelta delta;
    delta.base_num_vertices = graph.num_vertices();
    for (VertexId v = 100; v < 2700; ++v) {
      delta.edge_adds.push_back({kFollow, v, v + 1, 1});
    }
    const uint64_t compactions = graph.overlay_stats().compactions;
    apply(delta);
    EXPECT_EQ(graph.overlay_stats().compactions, compactions + 2);
  }
  {
    SCOPED_TRACE("the hub's own run, exact-size, regrows at double capacity");
    GraphDelta delta;
    delta.base_num_vertices = graph.num_vertices();
    delta.edge_adds.push_back({kMention, new_user(&delta), kHub, 1});
    apply(delta);
  }
  {
    SCOPED_TRACE("an insert and a fold merge into the hub's run in place");
    const Edge* hub_run = graph.InEdges(kMention, kHub).data();
    GraphDelta delta;
    delta.base_num_vertices = graph.num_vertices();
    delta.edge_adds.push_back({kMention, new_user(&delta), kHub, 1});
    delta.edge_adds.push_back({kMention, 5, kHub, 3});
    apply(delta);
    EXPECT_EQ(graph.InEdges(kMention, kHub).data(), hub_run);
  }
}

}  // namespace
}  // namespace hinpriv::hin
