#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/json.h"

namespace hinpriv::service {
namespace {

TEST(JsonTest, ScalarRoundTrips) {
  for (const std::string doc :
       {"null", "true", "false", "0", "-17", "3.5", "\"hi\"", "[]", "{}",
        "[1,2,3]", "{\"a\":1,\"b\":[true,null]}"}) {
    auto parsed = JsonValue::Parse(doc);
    ASSERT_TRUE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.value().Serialize(), doc);
  }
}

TEST(JsonTest, StringEscapes) {
  auto parsed = JsonValue::Parse("\"a\\n\\t\\\"\\\\ b \\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), "a\n\t\"\\ b \xc3\xa9");
  // Serialize -> parse is the identity on the value.
  auto reparsed = JsonValue::Parse(parsed.value().Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().AsString(), parsed.value().AsString());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const std::string doc :
       {"", "tru", "[1,", "{\"a\"}", "{\"a\":}", "\"unterminated", "1 2",
        "[1] trailing", "{\"a\":1,}", "nul"}) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, IntegersSerializeExactly) {
  EXPECT_EQ(JsonValue::Int(1234567890123).Serialize(), "1234567890123");
  EXPECT_EQ(JsonValue::Int(-42).Serialize(), "-42");
}

TEST(ProtocolTest, RequestRoundTrips) {
  Request request;
  request.id = 42;
  request.method = Method::kAttackOne;
  request.target = 123;
  request.has_target = true;
  request.max_distance = 2;
  request.deadline_ms = 250.5;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().method, Method::kAttackOne);
  EXPECT_TRUE(decoded.value().has_target);
  EXPECT_EQ(decoded.value().target, 123u);
  EXPECT_EQ(decoded.value().max_distance, 2);
  EXPECT_DOUBLE_EQ(decoded.value().deadline_ms, 250.5);
}

TEST(ProtocolTest, ResponseRoundTrips) {
  Response response;
  response.id = 7;
  response.code = ResponseCode::kOk;
  JsonValue payload = JsonValue::Object();
  payload.Set("num_candidates", JsonValue::Int(3));
  response.result = payload;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 7u);
  EXPECT_EQ(decoded.value().code, ResponseCode::kOk);
  EXPECT_EQ(decoded.value().result.GetInt("num_candidates"), 3);

  response.code = ResponseCode::kBusy;
  response.error = "queue full";
  decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, ResponseCode::kBusy);
  EXPECT_EQ(decoded.value().error, "queue full");
}

// An attack_one answer encodes at most kMaxEncodedCandidates ids but
// reports the exact count; a list of one is a de-anonymization.
TEST(ProtocolTest, AttackAnswerTruncatesToEncodedCap) {
  std::vector<hin::VertexId> candidates(1500);
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<hin::VertexId>(2 * i + 1);
  }
  Response response = AttackAnswer(9, 2, candidates);
  EXPECT_EQ(response.code, ResponseCode::kOk);
  EXPECT_EQ(response.result.GetInt("target"), 9);
  EXPECT_EQ(response.result.GetInt("max_distance"), 2);
  EXPECT_EQ(response.result.GetInt("num_candidates"), 1500);
  EXPECT_TRUE(response.result.GetBool("truncated"));
  EXPECT_FALSE(response.result.GetBool("deanonymized", true));
  const JsonValue* list = response.result.Find("candidates");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), kMaxEncodedCandidates);
  for (size_t i = 0; i < kMaxEncodedCandidates; ++i) {
    ASSERT_EQ(list->at(i).AsInt(), static_cast<int64_t>(candidates[i]));
  }

  response = AttackAnswer(9, 2, {42});
  EXPECT_EQ(response.result.GetInt("num_candidates"), 1);
  EXPECT_TRUE(response.result.GetBool("deanonymized"));
  EXPECT_FALSE(response.result.GetBool("truncated", true));
  list = response.result.Find("candidates");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ(list->at(0).AsInt(), 42);

  response = AttackAnswer(9, 2, {});
  EXPECT_EQ(response.result.GetInt("num_candidates", -1), 0);
  EXPECT_FALSE(response.result.GetBool("deanonymized", true));
  EXPECT_FALSE(response.result.GetBool("truncated", true));
  list = response.result.Find("candidates");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->size(), 0u);
}

TEST(ProtocolTest, DecodeRequestValidates) {
  // Not an object.
  EXPECT_FALSE(DecodeRequest(JsonValue::Int(1)).ok());
  // Missing id.
  auto doc = JsonValue::Parse(R"({"method":"stats"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DecodeRequest(doc.value()).ok());
  // Unknown method.
  doc = JsonValue::Parse(R"({"id":1,"method":"frobnicate"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DecodeRequest(doc.value()).ok());
  // attack_one without target.
  doc = JsonValue::Parse(R"({"id":1,"method":"attack_one"})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DecodeRequest(doc.value()).ok());
  // Negative target.
  doc = JsonValue::Parse(R"({"id":1,"method":"attack_one","target":-5})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DecodeRequest(doc.value()).ok());
  // Absurd max_distance.
  doc = JsonValue::Parse(
      R"({"id":1,"method":"risk","max_distance":1000000})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DecodeRequest(doc.value()).ok());
}

class FramePipeTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramePipeTest, FrameRoundTrips) {
  const std::string payload = R"({"id":1,"method":"stats"})";
  ASSERT_TRUE(WriteFrame(fds_[0], payload).ok());
  auto read_back = ReadFrame(fds_[1]);
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  ASSERT_TRUE(read_back.value().has_value());
  EXPECT_EQ(*read_back.value(), payload);
}

TEST_F(FramePipeTest, EmptyFrameRoundTrips) {
  ASSERT_TRUE(WriteFrame(fds_[0], "").ok());
  auto read_back = ReadFrame(fds_[1]);
  ASSERT_TRUE(read_back.ok());
  ASSERT_TRUE(read_back.value().has_value());
  EXPECT_TRUE(read_back.value()->empty());
}

TEST_F(FramePipeTest, CleanEofAtFrameBoundaryIsNullopt) {
  ::close(fds_[0]);
  fds_[0] = -1;
  auto read_back = ReadFrame(fds_[1]);
  ASSERT_TRUE(read_back.ok());
  EXPECT_FALSE(read_back.value().has_value());
}

TEST_F(FramePipeTest, TruncatedFrameIsCorruption) {
  // A length prefix promising 100 bytes, then hangup after 3.
  const char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  ASSERT_EQ(::write(fds_[0], "abc", 3), 3);
  ::close(fds_[0]);
  fds_[0] = -1;
  auto read_back = ReadFrame(fds_[1]);
  EXPECT_FALSE(read_back.ok());
  EXPECT_EQ(read_back.status().code(), util::Status::Code::kCorruption);
}

TEST_F(FramePipeTest, OversizedLengthPrefixRejected) {
  // 0xFFFFFFFF length: must be rejected before any allocation attempt.
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fds_[0], header, 4), 4);
  auto read_back = ReadFrame(fds_[1]);
  EXPECT_FALSE(read_back.ok());
  EXPECT_EQ(read_back.status().code(), util::Status::Code::kCorruption);
}

TEST_F(FramePipeTest, OversizedPayloadRefusedOnWrite) {
  const std::string big(kMaxFrameBytes + 1, 'x');
  EXPECT_FALSE(WriteFrame(fds_[0], big).ok());
}

TEST_F(FramePipeTest, BackToBackFramesPreserveBoundaries) {
  ASSERT_TRUE(WriteFrame(fds_[0], "first").ok());
  ASSERT_TRUE(WriteFrame(fds_[0], "second").ok());
  auto a = ReadFrame(fds_[1]);
  auto b = ReadFrame(fds_[1]);
  ASSERT_TRUE(a.ok() && a.value().has_value());
  ASSERT_TRUE(b.ok() && b.value().has_value());
  EXPECT_EQ(*a.value(), "first");
  EXPECT_EQ(*b.value(), "second");
}

}  // namespace
}  // namespace hinpriv::service
