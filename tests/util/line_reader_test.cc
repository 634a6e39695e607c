#include "util/line_reader.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/string_util.h"

namespace hinpriv::util {
namespace {

// Every line LineReader yields from `text`, and the code it ends with.
std::vector<std::string> ReadAll(const std::string& text,
                                 Status::Code* end_code = nullptr) {
  std::istringstream in(text);
  LineReader reader(in, "test", &Status::Corruption);
  std::vector<std::string> lines;
  Status status;
  while ((status = reader.NextLine()).ok()) {
    lines.emplace_back(reader.line());
  }
  if (end_code != nullptr) *end_code = status.code();
  return lines;
}

// The line-at-a-time reading LineReader replaces: getline, Trim, and
// skip what trims to nothing.
std::vector<std::string> ReadAllByGetline(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = Trim(line);
    if (!trimmed.empty()) lines.emplace_back(trimmed);
  }
  return lines;
}

TEST(LineReaderTest, TrimsAndSkipsBlankLines) {
  Status::Code end = Status::Code::kOk;
  const auto lines =
      ReadAll("a\nb c\r\n\n  \n\t\r\n  d \t\nlast", &end);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b c", "d", "last"}));
  EXPECT_EQ(end, Status::Code::kCorruption);
}

TEST(LineReaderTest, EndOfStreamIsTheGivenStatus) {
  std::istringstream empty("");
  LineReader reader(empty, "graph", &Status::IoError);
  const Status status = reader.NextLine();
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_EQ(status.message(), "unexpected end of graph stream");
  std::istringstream blank("\n \r\n\t\n");
  LineReader blank_reader(blank, "delta", &Status::Corruption);
  EXPECT_EQ(blank_reader.NextLine().code(), Status::Code::kCorruption);
}

// Lines of every length up to a few hundred bytes, with CR, tab and
// space padding, spanning several chunks: the reader yields exactly what
// getline + Trim yields, wherever a chunk boundary cuts a line.
TEST(LineReaderTest, MatchesGetlineAcrossChunkBoundaries) {
  Rng rng(5);
  const std::string pad[] = {"", " ", "\t", "\r", " \t ", "  "};
  for (int trial = 0; trial < 4; ++trial) {
    std::string text;
    while (text.size() < 4 * LineReader::kChunkBytes) {
      text += pad[rng.UniformU64(6)];
      const size_t length = rng.UniformU64(rng.Bernoulli(0.1) ? 400 : 40);
      for (size_t i = 0; i < length; ++i) {
        text += static_cast<char>(rng.Bernoulli(0.2) ? ' ' : 'a' + i % 26);
      }
      text += pad[rng.UniformU64(6)];
      text += rng.Bernoulli(0.5) ? "\n" : "\r\n";
    }
    if (trial % 2 == 1) text += "tail without newline";
    EXPECT_EQ(ReadAll(text), ReadAllByGetline(text)) << "trial " << trial;
  }
}

// A line longer than several chunks grows the buffer and comes out whole.
TEST(LineReaderTest, LineLongerThanAChunk) {
  const std::string long_line(3 * LineReader::kChunkBytes + 17, 'x');
  const auto lines = ReadAll("first\n" + long_line + "  \r\nlast\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], long_line);
  EXPECT_EQ(lines[2], "last");
}

TEST(LineReaderTest, SplitKeepsEmptyFields) {
  std::istringstream in("a  b c\nx\n");
  LineReader reader(in, "test", &Status::Corruption);
  ASSERT_TRUE(reader.NextRow(2).ok());
  EXPECT_EQ(reader.fields(),
            (std::vector<std::string_view>{"a", "", "b", "c"}));
  const Status status = reader.NextRow(2);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_EQ(status.message(), "malformed test line: 'x'");
}

TEST(LineReaderTest, ParsePlainAcceptsOnlyPlainRows) {
  const auto plain = [](const std::string& row) {
    std::istringstream in(row + "\n");
    LineReader reader(in, "test", &Status::Corruption);
    EXPECT_TRUE(reader.NextLine().ok());
    uint64_t a = 0;
    int32_t b = 0;
    uint32_t c = 0;
    const bool ok = reader.ParsePlain(&a, &b, &c);
    return ok ? std::to_string(a) + "," + std::to_string(b) + "," +
                    std::to_string(c)
              : std::string("no");
  };
  EXPECT_EQ(plain("1 -2 3"), "1,-2,3");
  EXPECT_EQ(plain("007 0 4294967295"), "7,0,4294967295");
  EXPECT_EQ(plain("18446744073709551615 -2147483648 0"),
            "18446744073709551615,-2147483648,0");
  for (const char* row :
       {"1 2", "1 2 3 4", "1  2 3", "+1 2 3", "1 +2 3", "-1 2 3", "1 2 -3",
        "1 2 4294967296", "1 2147483648 3", "18446744073709551616 2 3",
        "1 2 3x", "1\t2 3", "x 2 3", "1 2 "}) {
    EXPECT_EQ(plain(row), "no") << row;
  }
}

// Whatever ParsePlain accepts, splitting and the util::Parse* functions
// accept with the same values: the fast path never admits a row the
// field-by-field path would reject.
TEST(LineReaderTest, ParsePlainAgreesWithFieldParsers) {
  Rng rng(9);
  const auto digits = [&rng] {
    std::string d;
    const size_t length = 1 + rng.UniformU64(rng.Bernoulli(0.2) ? 21 : 6);
    for (size_t i = 0; i < length; ++i) {
      d += static_cast<char>('0' + rng.UniformU64(10));
    }
    return d;
  };
  const char* prefixes[] = {"", "", "", "", "-", "+", "x", "--"};
  const char* suffixes[] = {"", "", "", "", "x", "-", "+"};
  const char* separators[] = {" ", " ", " ", " ", "  ", "\t", ""};
  int accepted = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    // Half the rows are three plain fields, the rest noisy.
    const bool noisy = rng.Bernoulli(0.5);
    std::string row;
    const size_t num_fields = noisy ? 2 + rng.UniformU64(3) : 3;
    for (size_t f = 0; f < num_fields; ++f) {
      if (f > 0) row += noisy ? separators[rng.UniformU64(7)] : " ";
      if (f == 1 && rng.Bernoulli(0.3)) row += "-";
      row += (noisy ? prefixes[rng.UniformU64(8)] : "") + digits() +
             (noisy ? suffixes[rng.UniformU64(7)] : "");
    }
    std::istringstream in(row + "\n");
    LineReader reader(in, "test", &Status::Corruption);
    if (!reader.NextLine().ok()) continue;  // all blank
    uint64_t src = 0;
    int32_t value = 0;
    uint32_t strength = 0;
    if (!reader.ParsePlain(&src, &value, &strength)) continue;
    ++accepted;
    ASSERT_TRUE(reader.Split(3).ok()) << row;
    ASSERT_EQ(reader.fields().size(), 3u) << row;
    const auto wide = ParseUint64(reader.fields()[0]);
    const auto narrow = ParseInteger<int32_t>(reader.fields()[1]);
    const auto unsigned_narrow = ParseInteger<uint32_t>(reader.fields()[2]);
    ASSERT_TRUE(wide.ok() && narrow.ok() && unsigned_narrow.ok()) << row;
    EXPECT_EQ(wide.value(), src) << row;
    EXPECT_EQ(narrow.value(), value) << row;
    EXPECT_EQ(unsigned_narrow.value(), strength) << row;
  }
  EXPECT_GT(accepted, 5000);
}

}  // namespace
}  // namespace hinpriv::util
