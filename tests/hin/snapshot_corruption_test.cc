// Hardening coverage for the HINPRIVS snapshot reader: every truncation
// length and randomized bit flips must come back as a util::Status (or a
// still-valid graph) — never a crash, hang, or out-of-mapping read. The
// reader validates every count and section bound against the actual file
// size before handing out any mapping-derived span, so all of these run
// safely under the HINPRIV_SANITIZE preset.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hin/io.h"
#include "hin/snapshot.h"
#include "synth/tqq_generator.h"
#include "util/random.h"
#include "temp_path.h"

namespace hinpriv::hin {
namespace {

// Concurrent ctest processes must not share temp files: a sibling test
// truncating a file this process has mmap'd turns page faults past the new
// EOF into SIGBUS. TempPath scopes every path to the running test.
using testing_support::TempPath;

std::string SnapshotBytes(size_t num_users, uint64_t seed) {
  synth::TqqConfig config;
  config.num_users = num_users;
  util::Rng rng(seed);
  auto graph = synth::GenerateTqqNetwork(config, &rng);
  EXPECT_TRUE(graph.ok());
  const TempPath src("snap_corrupt_src");
  EXPECT_TRUE(SaveGraphSnapshot(graph.value(), src.path()).ok());
  std::ifstream in(src.path(), std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The reader memory-maps files, so corrupted payloads go through a real
// temp file rather than a stream. The file goes when this returns; a graph
// that loaded keeps its mapping.
util::Result<Graph> LoadFromBytes(const std::string& bytes,
                                  bool verify_edges = true) {
  const TempPath temp("snap_corrupt_case");
  const std::string& path = temp.path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SnapshotOptions options;
  // Scan edge payloads too: structural validation alone intentionally
  // leaves them untouched (lazy paging), but this suite wants every
  // corrupted byte either rejected or provably benign.
  options.verify_edges = verify_edges;
  return LoadGraphSnapshot(path, options);
}

// Exhaustive truncation sweep: a prefix of any length must fail with a
// clean Status — the header records the exact file size, so the only
// acceptable parse is the full payload.
TEST(SnapshotCorruptionTest, EveryTruncationLengthFailsCleanly) {
  const std::string bytes = SnapshotBytes(30, 31);
  ASSERT_GT(bytes.size(), 128u);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    auto loaded = LoadFromBytes(bytes.substr(0, keep));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << keep << " bytes parsed";
    const auto code = loaded.status().code();
    EXPECT_TRUE(code == util::Status::Code::kCorruption ||
                code == util::Status::Code::kIoError)
        << "keep=" << keep << ": " << loaded.status().ToString();
  }
}

// Strided truncation sweep over a larger payload so cuts land inside the
// big CSR and attribute sections too.
TEST(SnapshotCorruptionTest, StridedTruncationOnLargerNetwork) {
  const std::string bytes = SnapshotBytes(300, 32);
  for (size_t keep = 0; keep < bytes.size(); keep += 97) {
    EXPECT_FALSE(LoadFromBytes(bytes.substr(0, keep)).ok())
        << "prefix of " << keep << " bytes parsed";
  }
}

// Seeded single-bit-flip fuzz. A flipped bit may still decode to a valid
// graph (padding bytes, attribute values, benign strength bits); the
// contract is no crash and, on success, a structurally plausible result.
TEST(SnapshotCorruptionTest, SingleBitFlipsNeverCrash) {
  const std::string bytes = SnapshotBytes(50, 33);
  util::Rng fuzz(34);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupted = bytes;
    const size_t byte_pos = fuzz.UniformU64(corrupted.size());
    const int bit = static_cast<int>(fuzz.UniformU64(8));
    corrupted[byte_pos] =
        static_cast<char>(corrupted[byte_pos] ^ (1 << bit));
    auto loaded = LoadFromBytes(corrupted);
    if (loaded.ok()) {
      EXPECT_LE(loaded.value().num_vertices(), 1u << 20);
    }
  }
}

// Multi-bit / burst corruption, including in the header where the section
// table pointer and the counts live.
TEST(SnapshotCorruptionTest, BurstBitFlipsNeverCrash) {
  const std::string bytes = SnapshotBytes(50, 35);
  util::Rng fuzz(36);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupted = bytes;
    const int flips = 1 + static_cast<int>(fuzz.UniformU64(8));
    for (int f = 0; f < flips; ++f) {
      const size_t byte_pos = fuzz.UniformU64(corrupted.size());
      corrupted[byte_pos] = static_cast<char>(
          corrupted[byte_pos] ^ (1 << fuzz.UniformU64(8)));
    }
    auto loaded = LoadFromBytes(corrupted);
    if (loaded.ok()) {
      EXPECT_LE(loaded.value().num_vertices(), 1u << 20);
    }
  }
}

// Hostile header fields: each one must be rejected by validation against
// the real file size, never used to size an allocation or a span first.
TEST(SnapshotCorruptionTest, HostileHeaderFieldsRejected) {
  const std::string bytes = SnapshotBytes(40, 37);
  auto patch_u64 = [&](size_t offset, uint64_t value) {
    std::string patched = bytes;
    std::memcpy(patched.data() + offset, &value, sizeof(value));
    return patched;
  };
  // Header layout: magic[8], version u32, byte_order u32, then u64 fields
  // at 16: header_bytes, file_bytes, schema_offset, schema_bytes,
  // section_table_offset, section_count, num_vertices, num_edges.
  const size_t kFileBytes = 24;
  const size_t kSchemaOffset = 32;
  const size_t kSchemaBytes = 40;
  const size_t kTableOffset = 48;
  const size_t kSectionCount = 56;
  const size_t kNumVertices = 64;
  const size_t kNumEdges = 72;
  const uint64_t kHuge = ~0ull - 7;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"file_bytes", patch_u64(kFileBytes, kHuge)},
      {"file_bytes_small", patch_u64(kFileBytes, 128)},
      {"schema_offset", patch_u64(kSchemaOffset, kHuge)},
      {"schema_bytes", patch_u64(kSchemaBytes, kHuge)},
      {"table_offset", patch_u64(kTableOffset, kHuge)},
      {"table_offset_unaligned", patch_u64(kTableOffset, 129)},
      {"section_count", patch_u64(kSectionCount, kHuge)},
      {"section_count_zero", patch_u64(kSectionCount, 0)},
      {"num_vertices", patch_u64(kNumVertices, kHuge)},
      {"num_edges", patch_u64(kNumEdges, kHuge)}};
  for (const auto& [name, patched] : cases) {
    auto loaded = LoadFromBytes(patched);
    ASSERT_FALSE(loaded.ok()) << "hostile " << name << " accepted";
    EXPECT_EQ(loaded.status().code(), util::Status::Code::kCorruption)
        << name << ": " << loaded.status().ToString();
  }
}

// A snapshot written on a foreign-endian host must be rejected up front
// (the payload is raw native arrays).
TEST(SnapshotCorruptionTest, ForeignEndianRejected) {
  std::string bytes = SnapshotBytes(20, 38);
  // Byte-swap the byte-order probe at offset 12.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  auto loaded = LoadFromBytes(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::Status::Code::kCorruption);
}

// The same guarantees hold through the format-sniffing entry point,
// including prefixes shorter than the 8-byte magic.
TEST(SnapshotCorruptionTest, LoadGraphAutoSurvivesCorruptSnapshots) {
  const std::string bytes = SnapshotBytes(30, 39);
  const TempPath temp("snap_corrupt_auto");
  const std::string& path = temp.path();
  for (size_t keep : {0ul, 3ul, 7ul, 8ul, 64ul, 128ul, bytes.size() / 2,
                      bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_FALSE(LoadGraphAuto(path).ok()) << "keep=" << keep;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = LoadGraphAuto(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices(), 30u);
  EXPECT_TRUE(loaded.value().is_mapped());
}

}  // namespace
}  // namespace hinpriv::hin
