#include "util/string_util.h"

#include <gtest/gtest.h>

namespace hinpriv::util {
namespace {

TEST(SplitTest, BasicSplitting) {
  const auto fields = Split("a\tb\tc", '\t');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto fields = Split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitTest, NoDelimiter) {
  const auto fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(SplitTest, EmptyInput) {
  const auto fields = Split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(TrimTest, TrimsWhitespace) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("\t\r\nabc\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_TRUE(StartsWith("hello", "hello"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_FALSE(StartsWith("hello", "el"));
}

TEST(ParseInt64Test, ValidValues) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(), INT64_MAX);
}

TEST(ParseInt64Test, RejectsJunk) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64(" 12").ok());
}

TEST(ParseInt64Test, RejectsOverflow) {
  const auto r = ParseInt64("99999999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange);
}

TEST(ParseUint64Test, ValidValues) {
  EXPECT_EQ(ParseUint64("0").value(), 0u);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(), UINT64_MAX);
}

TEST(ParseUint64Test, RejectsNegativeAndJunk) {
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("1e3").ok());
}

// The accept/reject set of the integer parsers, pinned field by field:
// the text loaders' syntax is defined by it.
TEST(ParseInt64Test, AcceptsOneLeadingPlus) {
  EXPECT_EQ(ParseInt64("+5").value(), 5);
  EXPECT_EQ(ParseInt64("+0").value(), 0);
  EXPECT_EQ(ParseInt64("+9223372036854775807").value(), INT64_MAX);
  for (const char* junk : {"+", "-", "++5", "+-5", "-+5", "--5", "+ 5"}) {
    const auto r = ParseInt64(junk);
    ASSERT_FALSE(r.ok()) << junk;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << junk;
  }
}

TEST(ParseInt64Test, AcceptsLeadingZerosAndNegativeZero) {
  EXPECT_EQ(ParseInt64("007").value(), 7);
  EXPECT_EQ(ParseInt64("-007").value(), -7);
  EXPECT_EQ(ParseInt64("-0").value(), 0);
  EXPECT_EQ(ParseInt64("0009223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").value(), INT64_MIN);
}

TEST(ParseInt64Test, RejectsSurroundingWhitespace) {
  for (const char* junk :
       {" 12", "12 ", "\t12", "12\t", "\r12", "12\r", "\n12", "12\n", "\v12",
        "\f12", "1 2", " ", "0x10", "1e3", "12-"}) {
    const auto r = ParseInt64(junk);
    ASSERT_FALSE(r.ok()) << junk;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << junk;
  }
}

TEST(ParseInt64Test, OverflowIsOutOfRange) {
  for (const char* big :
       {"9223372036854775808", "-9223372036854775809", "+9223372036854775808",
        "99999999999999999999x"}) {
    const auto r = ParseInt64(big);
    ASSERT_FALSE(r.ok()) << big;
    EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange) << big;
  }
}

TEST(ParseUint64Test, AcceptsOneLeadingPlusAndLeadingZeros) {
  EXPECT_EQ(ParseUint64("+5").value(), 5u);
  EXPECT_EQ(ParseUint64("+0").value(), 0u);
  EXPECT_EQ(ParseUint64("007").value(), 7u);
  EXPECT_EQ(ParseUint64("000").value(), 0u);
  EXPECT_EQ(ParseUint64("0018446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(ParseUint64("+18446744073709551615").value(), UINT64_MAX);
}

TEST(ParseUint64Test, RejectsSignsWhitespaceAndJunk) {
  for (const char* junk :
       {"-0", "-5", "-18446744073709551616", "+", "++5", "+-5", "+ 5", " 12",
        "12 ", "\t12", "12\t", "12\r", "\v12", "\f12", "1 2", "0x10", "12-",
        "x"}) {
    const auto r = ParseUint64(junk);
    ASSERT_FALSE(r.ok()) << junk;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << junk;
  }
}

TEST(ParseUint64Test, OverflowIsOutOfRange) {
  for (const char* big : {"18446744073709551616", "+18446744073709551616",
                          "99999999999999999999999", "18446744073709551616x"}) {
    const auto r = ParseUint64(big);
    ASSERT_FALSE(r.ok()) << big;
    EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange) << big;
  }
}

// ParseInteger<T> is ParseInt64/ParseUint64 plus a range check: whatever
// T cannot hold, 64-bit overflow included, is Corruption; junk keeps the
// wide parser's InvalidArgument, also when its digits would overflow T.
TEST(ParseIntegerTest, NarrowsLikeTheWideParsers) {
  EXPECT_EQ(ParseInteger<uint32_t>("4294967295").value(), UINT32_MAX);
  EXPECT_EQ(ParseInteger<uint32_t>("+7").value(), 7u);
  EXPECT_EQ(ParseInteger<uint32_t>("0007").value(), 7u);
  EXPECT_EQ(ParseInteger<int32_t>("-2147483648").value(), INT32_MIN);
  EXPECT_EQ(ParseInteger<int32_t>("+2147483647").value(), INT32_MAX);
  EXPECT_EQ(ParseInteger<uint16_t>("65535").value(), 65535u);
  EXPECT_EQ(ParseInteger<int32_t>("-0").value(), 0);
  for (const char* big :
       {"4294967296", "18446744073709551616", "99999999999999999999x"}) {
    EXPECT_EQ(ParseInteger<uint32_t>(big).status().code(),
              Status::Code::kCorruption)
        << big;
  }
  EXPECT_EQ(ParseInteger<int32_t>("2147483648").status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(ParseInteger<int32_t>("-2147483649").status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(ParseInteger<uint16_t>("65536").status().code(),
            Status::Code::kCorruption);
  for (const char* junk : {"", "-1", "-0", "4294967296x", " 1", "1 ", "+",
                           "+-1", "1.0"}) {
    EXPECT_EQ(ParseInteger<uint32_t>(junk).status().code(),
              Status::Code::kInvalidArgument)
        << junk;
  }
  for (const char* junk : {"", "2147483648x", " -1", "-", "+-1"}) {
    EXPECT_EQ(ParseInteger<int32_t>(junk).status().code(),
              Status::Code::kInvalidArgument)
        << junk;
  }
}

TEST(ParseDoubleTest, ValidValues) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2").value(), -2.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 0.001);
}

TEST(ParseDoubleTest, RejectsJunk) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5.2").ok());
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(100.0, 1), "100.0");
  EXPECT_EQ(FormatDouble(2.5, 0), "2");  // round-half-to-even per printf
}

}  // namespace
}  // namespace hinpriv::util
