#include "hin/io.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hin/graph_builder.h"
#include "hin/tqq_schema.h"
#include "synth/tqq_generator.h"
#include "util/line_reader.h"
#include "util/random.h"
#include "util/string_util.h"
#include "temp_path.h"

namespace hinpriv::hin {
namespace {

using testing_support::TempPath;

Graph MakeGraph() {
  GraphBuilder builder(TqqTargetSchema());
  builder.AddVertices(0, 4);
  EXPECT_TRUE(builder.SetAttribute(0, kGenderAttr, 1).ok());
  EXPECT_TRUE(builder.SetAttribute(0, kYobAttr, 1980).ok());
  EXPECT_TRUE(builder.SetAttribute(1, kTweetCountAttr, 123).ok());
  EXPECT_TRUE(builder.SetAttribute(3, kTagCountAttr, -2).ok());
  EXPECT_TRUE(builder.AddEdge(0, 1, kFollowLink).ok());
  EXPECT_TRUE(builder.AddEdge(1, 2, kMentionLink, 5).ok());
  EXPECT_TRUE(builder.AddEdge(2, 0, kCommentLink, 9).ok());
  auto graph = std::move(builder).Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(GraphIoTest, RoundTripPreservesEverything) {
  const Graph original = MakeGraph();
  std::stringstream stream;
  ASSERT_TRUE(SaveGraph(original, stream).ok());
  auto loaded = LoadGraph(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& g = loaded.value();

  EXPECT_EQ(g.num_vertices(), original.num_vertices());
  EXPECT_EQ(g.num_edges(), original.num_edges());
  EXPECT_EQ(g.num_link_types(), original.num_link_types());
  EXPECT_EQ(g.schema().entity_type(0).name, kUserType);
  EXPECT_TRUE(g.schema().entity_type(0).attributes[kTweetCountAttr].growable);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (AttributeId a = 0; a < 4; ++a) {
      EXPECT_EQ(g.attribute(v, a), original.attribute(v, a));
    }
  }
  EXPECT_EQ(g.EdgeStrength(kMentionLink, 1, 2), 5u);
  EXPECT_EQ(g.EdgeStrength(kCommentLink, 2, 0), 9u);
  EXPECT_TRUE(g.HasEdge(kFollowLink, 0, 1));
}

TEST(GraphIoTest, RoundTripMultiEntityGraph) {
  NetworkSchema schema = TqqFullSchema();
  GraphBuilder builder(schema);
  const EntityTypeId user = schema.FindEntityType(kUserType);
  const EntityTypeId tweet = schema.FindEntityType(kTweetType);
  const VertexId u = builder.AddVertex(user);
  const VertexId t = builder.AddVertex(tweet);
  EXPECT_TRUE(builder.AddEdge(u, t, schema.FindLinkType("post_tweet")).ok());
  auto graph = std::move(builder).Build();
  ASSERT_TRUE(graph.ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveGraph(graph.value(), stream).ok());
  auto loaded = LoadGraph(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entity_type(0), user);
  EXPECT_EQ(loaded.value().entity_type(1), tweet);
  EXPECT_EQ(loaded.value().num_edges(), 1u);
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph original = MakeGraph();
  const TempPath temp("round_trip.graph");
  const std::string& path = temp.path();
  ASSERT_TRUE(SaveGraphToFile(original, path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.value().num_edges(), original.num_edges());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  auto loaded = LoadGraphFromFile("/nonexistent/path/to.graph");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::Status::Code::kIoError);
}

// --- Failure injection: every corruption must surface as a Status. --------

std::string Serialize(const Graph& g) {
  std::stringstream stream;
  EXPECT_TRUE(SaveGraph(g, stream).ok());
  return stream.str();
}

util::Status LoadFrom(const std::string& text) {
  std::stringstream stream(text);
  return LoadGraph(stream).status();
}

TEST(GraphIoFailureTest, BadMagic) {
  std::string text = Serialize(MakeGraph());
  text.replace(0, 7, "corrupt");
  EXPECT_EQ(LoadFrom(text).code(), util::Status::Code::kCorruption);
}

TEST(GraphIoFailureTest, BadVersion) {
  std::string text = Serialize(MakeGraph());
  const size_t pos = text.find(" 1\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, " 9\n");
  EXPECT_FALSE(LoadFrom(text).ok());
}

TEST(GraphIoFailureTest, TruncatedStream) {
  const std::string text = Serialize(MakeGraph());
  for (size_t keep :
       {text.size() / 8, text.size() / 3, text.size() / 2, text.size() - 5}) {
    EXPECT_FALSE(LoadFrom(text.substr(0, keep)).ok()) << keep;
  }
}

TEST(GraphIoFailureTest, EmptyStream) {
  EXPECT_EQ(LoadFrom("").code(), util::Status::Code::kIoError);
}

TEST(GraphIoFailureTest, EdgeEndpointOutOfRange) {
  std::string text = Serialize(MakeGraph());
  // Edge rows are "src dst strength"; corrupt the mention edge 1->2.
  const size_t pos = text.find("1 2 5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1 9 5");
  EXPECT_EQ(LoadFrom(text).code(), util::Status::Code::kCorruption);
}

// 2^32 does not fit a Strength; it must not wrap to 0.
TEST(GraphIoFailureTest, StrengthBeyondUint32IsCorruption) {
  std::string text = Serialize(MakeGraph());
  const size_t pos = text.find("1 2 5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1 2 4294967296");
  EXPECT_EQ(LoadFrom(text).code(), util::Status::Code::kCorruption);
}

TEST(GraphIoFailureTest, NonNumericField) {
  std::string text = Serialize(MakeGraph());
  const size_t pos = text.find("1 2 5");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "1 x 5");
  EXPECT_FALSE(LoadFrom(text).ok());
}

TEST(GraphIoFailureTest, MissingEndMarker) {
  std::string text = Serialize(MakeGraph());
  const size_t pos = text.rfind("end");
  text.replace(pos, 3, "eh?");
  EXPECT_FALSE(LoadFrom(text).ok());
}

TEST(GraphIoFailureTest, WrongAttributeCount) {
  std::string text = Serialize(MakeGraph());
  // The first vertex row is "0 1 1980 0 0": drop a field.
  const size_t pos = text.find("0 1 1980 0 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "0 1 1980 0");
  EXPECT_EQ(LoadFrom(text).code(), util::Status::Code::kCorruption);
}

std::string SerializeNetwork(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  return Serialize(graph.value());
}

// Exhaustive truncation sweep: every prefix fails with a Status, except
// the one that drops only the final newline ("end" still terminates).
TEST(GraphIoFailureTest, EveryTruncationLengthFailsCleanly) {
  const std::string text = SerializeNetwork(30, 21);
  ASSERT_EQ(text.substr(text.size() - 4), "end\n");
  for (size_t keep = 0; keep < text.size(); ++keep) {
    const util::Status status = LoadFrom(text.substr(0, keep));
    EXPECT_EQ(status.ok(), keep == text.size() - 1)
        << "prefix of " << keep << " bytes: " << status.ToString();
  }
}

// Seeded byte-flip fuzz: overwriting any byte with any value must either
// fail with a Status or still yield a valid graph — never crash, hang, or
// allocate from a corrupted count before the rows behind it are read.
TEST(GraphIoFailureTest, RandomByteCorruptionNeverCrashes) {
  const std::string text = SerializeNetwork(50, 22);
  util::Rng fuzz(23);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupted = text;
    corrupted[fuzz.UniformU64(corrupted.size())] =
        static_cast<char>(fuzz.UniformU64(256));
    std::stringstream stream(corrupted);
    auto loaded = LoadGraph(stream);
    if (loaded.ok()) {
      EXPECT_LE(loaded.value().num_vertices(), 1u << 20);
    }
  }
}

// --- Round trips through the chunked reader --------------------------------
// SaveGraph is canonical: runs in id order, one row per merged edge. So a
// text that loads to the same graph reserializes to the same bytes, and
// any divergence in the reader or in Build() shows as a byte difference.

// The loaded graph's canonical text, or the load's error.
std::string Reserialize(const std::string& text) {
  std::stringstream stream(text);
  auto loaded = LoadGraph(stream);
  if (!loaded.ok()) return "load failed: " + loaded.status().ToString();
  return Serialize(loaded.value());
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Large enough to span several reader chunks.
std::string SerializeMultiChunkNetwork(uint64_t seed) {
  const std::string text = SerializeNetwork(2000, seed);
  EXPECT_GT(text.size(), 3 * util::LineReader::kChunkBytes);
  return text;
}

// Each edge section's rows shuffled, and every row of strength w >= 2
// split into two rows whose strengths sum to w: Build() merges them back.
// One row in ten starts with a '+', which LineReader::ParsePlain leaves to
// the field-by-field parse.
TEST(GraphIoRoundTripTest, ShuffledAndDuplicatedEdgeRows) {
  const std::string text = SerializeMultiChunkNetwork(31);
  util::Rng rng(32);
  const std::vector<std::string> lines = Lines(text);
  std::string mangled;
  size_t split_rows = 0;
  for (size_t i = 0; i < lines.size();) {
    if (!util::StartsWith(lines[i], "edges ")) {
      mangled += lines[i++] + "\n";
      continue;
    }
    const auto header = util::Split(lines[i], ' ');
    const size_t count = util::ParseUint64(header[2]).value();
    std::vector<std::string> rows;
    for (size_t r = 1; r <= count; ++r) {
      const auto fields = util::Split(lines[i + r], ' ');
      const uint64_t w = util::ParseUint64(fields[2]).value();
      const std::string pair =
          std::string(fields[0]) + " " + std::string(fields[1]) + " ";
      if (w >= 2) {
        const uint64_t part = 1 + rng.UniformU64(w - 1);
        rows.push_back(pair + std::to_string(part));
        rows.push_back(pair + std::to_string(w - part));
        ++split_rows;
      } else {
        rows.push_back(lines[i + r]);
      }
    }
    for (std::string& row : rows) {
      if (rng.Bernoulli(0.1)) row = "+" + row;
    }
    rng.Shuffle(&rows);
    mangled += "edges " + std::string(header[1]) + " " +
               std::to_string(rows.size()) + "\n";
    for (const std::string& row : rows) mangled += row + "\n";
    i += count + 1;
  }
  ASSERT_GT(split_rows, 100u);
  ASSERT_NE(mangled, text);
  EXPECT_EQ(Reserialize(mangled), text);
}

// CRLF endings, blank and whitespace-only lines between rows, and spaces
// and tabs around every row.
TEST(GraphIoRoundTripTest, CrlfBlankLinesAndTrailingSpaces) {
  const std::string text = SerializeMultiChunkNetwork(33);
  util::Rng rng(34);
  const char* pads[] = {"", " ", "\t", "  \t "};
  const char* blanks[] = {"\r\n", " \r\n", "\t\r\n", "\n"};
  std::string mangled;
  for (const std::string& line : Lines(text)) {
    if (rng.Bernoulli(0.1)) mangled += blanks[rng.UniformU64(4)];
    mangled += pads[rng.UniformU64(4)] + line + pads[rng.UniformU64(4)] +
               "\r\n";
  }
  EXPECT_EQ(Reserialize(mangled), text);
}

// Leading blank lines shift every row by one more byte per pass, so the
// reader's chunk boundaries cut rows at every offset within them. A row
// padded past a whole chunk makes the buffer grow.
TEST(GraphIoRoundTripTest, RowsStraddlingChunkBoundaries) {
  const std::string text = SerializeMultiChunkNetwork(35);
  for (size_t shift = 0; shift < 48; ++shift) {
    ASSERT_EQ(Reserialize(std::string(shift, '\n') + text), text)
        << "shifted by " << shift;
  }
  std::string long_row = text;
  const size_t first_vertex = long_row.find("\nvertices ");
  ASSERT_NE(first_vertex, std::string::npos);
  const size_t header_end = long_row.find('\n', first_vertex + 1);
  const size_t row_end = long_row.find('\n', header_end + 1);
  long_row.insert(row_end,
                  std::string(2 * util::LineReader::kChunkBytes, ' '));
  EXPECT_EQ(Reserialize(long_row), text);
}

// The retired HINPRIVB binary format is no longer recognized: its files
// fall through to the text parser and are rejected as corrupt.
TEST(GraphIoFailureTest, RetiredBinaryMagicIsCorruption) {
  const TempPath temp("retired_magic.bin");
  const std::string& path = temp.path();
  {
    // Magic, u32 version 1, then the first schema bytes.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "HINPRIVB"
        << std::string("\x01\x00\x00\x00\x01\x00\x04\x00", 8);
  }
  auto loaded = LoadGraphAuto(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::Status::Code::kCorruption)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace hinpriv::hin
