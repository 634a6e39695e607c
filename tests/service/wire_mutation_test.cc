// Hardening coverage for the service's wire codec: every truncation length
// and seeded byte flips of one valid request per method and one response
// per code go through JsonValue::Parse and DecodeRequest/DecodeResponse,
// and mutated length prefixes go through ReadFrame over a pipe. Each must
// come back as a util::Status or as a value whose fields are in range —
// never a crash or a sanitizer report.

#include <unistd.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/json.h"
#include "service/protocol.h"
#include "util/random.h"

namespace hinpriv::service {
namespace {

constexpr int kFlipsPerDocument = 2000;

// One document per method, as in protocol.h's comment.
std::vector<std::string> RequestDocuments() {
  return {
      R"({"id":7,"method":"attack_one","target":123,"max_distance":2,)"
      R"("deadline_ms":250})",
      R"({"id":8,"method":"risk","max_distance":2})",
      R"({"id":9,"method":"risk","target":123,"max_distance":2})",
      R"({"id":10,"method":"stats"})",
      R"({"id":11,"method":"sleep","sleep_ms":50})",
      R"({"id":12,"method":"health"})",
      R"({"id":13,"method":"metrics","path":"m.prom"})",
      R"({"id":14,"method":"trace_start"})",
      R"({"id":15,"method":"trace_stop"})",
      R"({"id":16,"method":"trace_dump","path":"t.json"})",
      R"({"id":17,"method":"apply_delta","path":"deltas.hinpriv"})",
  };
}

// One document per response code; the OK one carries an attack answer.
std::vector<std::string> ResponseDocuments() {
  std::vector<std::string> docs;
  Response ok = AttackAnswer(123, 2, {4, 8, 15});
  ok.id = 7;
  docs.push_back(EncodeResponse(ok).Serialize());
  for (const ResponseCode code :
       {ResponseCode::kBusy, ResponseCode::kDeadlineExceeded,
        ResponseCode::kCancelled, ResponseCode::kInvalidRequest,
        ResponseCode::kShuttingDown, ResponseCode::kInternal}) {
    docs.push_back(
        EncodeResponse(ErrorResponse(code, "reason", 7)).Serialize());
  }
  return docs;
}

// Every prefix of `doc`, then kFlipsPerDocument copies with one byte
// replaced by a different seeded value.
std::vector<std::string> Mutations(const std::string& doc, uint64_t seed) {
  std::vector<std::string> out;
  for (size_t keep = 0; keep < doc.size(); ++keep) {
    out.push_back(doc.substr(0, keep));
  }
  util::Rng rng(seed);
  for (int i = 0; i < kFlipsPerDocument; ++i) {
    std::string flipped = doc;
    const size_t pos = rng.UniformU64(flipped.size());
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 + rng.UniformU64(255)));
    out.push_back(std::move(flipped));
  }
  return out;
}

// A decoded request's fields are in range, and re-encoding it decodes to
// the same request.
void ExpectSaneRequest(const Request& request, const std::string& text) {
  EXPECT_LE(request.id,
            static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
      << text;
  EXPECT_NE(std::string(MethodName(request.method)), "unknown") << text;
  if (request.has_target) {
    EXPECT_LE(request.target, hin::kInvalidVertex) << text;
  } else {
    EXPECT_EQ(request.target, 0u) << text;
    EXPECT_NE(request.method, Method::kAttackOne) << text;
  }
  EXPECT_GE(request.max_distance, -1) << text;
  EXPECT_LE(request.max_distance, 32) << text;
  auto again = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(again.ok()) << text << ": " << again.status().ToString();
  EXPECT_EQ(again.value().id, request.id) << text;
  EXPECT_EQ(again.value().method, request.method) << text;
  EXPECT_EQ(again.value().has_target, request.has_target) << text;
  EXPECT_EQ(again.value().target, request.target) << text;
  EXPECT_EQ(again.value().max_distance, request.max_distance) << text;
}

TEST(WireMutationTest, UnmutatedDocumentsDecode) {
  for (const std::string& text : RequestDocuments()) {
    auto doc = JsonValue::Parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    auto request = DecodeRequest(doc.value());
    ASSERT_TRUE(request.ok()) << text << ": " << request.status().ToString();
    ExpectSaneRequest(request.value(), text);
  }
  for (const std::string& text : ResponseDocuments()) {
    auto doc = JsonValue::Parse(text);
    ASSERT_TRUE(doc.ok()) << text;
    EXPECT_TRUE(DecodeResponse(doc.value()).ok()) << text;
  }
}

TEST(WireMutationTest, MutatedRequestsDecodeOrFailCleanly) {
  const std::vector<std::string> docs = RequestDocuments();
  size_t decoded = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const std::string& text : Mutations(docs[d], 100 + d)) {
      auto doc = JsonValue::Parse(text);
      if (!doc.ok()) continue;
      auto request = DecodeRequest(doc.value());
      if (!request.ok()) continue;
      ++decoded;
      ExpectSaneRequest(request.value(), text);
    }
  }
  // Flips inside string values and digits leave valid requests, so the
  // range checks above saw real input.
  EXPECT_GT(decoded, 0u);
}

TEST(WireMutationTest, MutatedResponsesDecodeOrFailCleanly) {
  const std::vector<std::string> docs = ResponseDocuments();
  size_t decoded = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const std::string& text : Mutations(docs[d], 200 + d)) {
      auto doc = JsonValue::Parse(text);
      if (!doc.ok()) continue;
      auto response = DecodeResponse(doc.value());
      if (!response.ok()) continue;
      ++decoded;
      const ResponseCode code = response.value().code;
      EXPECT_EQ(ParseResponseCode(ResponseCodeName(code)), code) << text;
      // The numbers a client reads from an answer stay defined.
      const JsonValue& result = response.value().result;
      (void)result.GetInt("target", -1);
      (void)result.GetInt("num_candidates", -1);
      if (const JsonValue* list = result.Find("candidates")) {
        for (const JsonValue& item : list->items()) (void)item.AsInt(-1);
      }
    }
  }
  EXPECT_GT(decoded, 0u);
}

// Writes `bytes` into a fresh pipe, closes its write end, and reads one
// frame back; *rest receives whatever ReadFrame left unread.
util::Result<std::optional<std::string>> ReadFrameFrom(const std::string& bytes,
                                                       std::string* rest) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  auto frame = ReadFrame(fds[0]);
  rest->clear();
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    rest->append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  return frame;
}

std::string LittleEndian(uint32_t length) {
  std::string prefix(4, '\0');
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((length >> (8 * i)) & 0xFF);
  }
  return prefix;
}

// A mutated length prefix in front of a real payload: above kMaxFrameBytes
// it is refused after the four prefix bytes, without reading (or
// allocating) the payload; otherwise the frame is the payload's first
// `length` bytes, or Corruption when the stream ends first.
TEST(WireMutationTest, MutatedLengthPrefixesAreRefusedOrBounded) {
  const std::string payload = RequestDocuments()[0];
  std::vector<uint32_t> lengths = {
      0,
      1,
      static_cast<uint32_t>(payload.size()) - 1,
      static_cast<uint32_t>(payload.size()) + 1,
      kMaxFrameBytes,
      kMaxFrameBytes + 1,
      std::numeric_limits<uint32_t>::max()};
  util::Rng rng(300);
  for (int i = 0; i < 256; ++i) {
    // One byte of the true prefix replaced by a different seeded value.
    const uint64_t byte = rng.UniformU64(4);
    const uint64_t flip = 1 + rng.UniformU64(255);
    lengths.push_back(static_cast<uint32_t>(payload.size() ^
                                            (flip << (8 * byte))));
  }
  for (const uint32_t length : lengths) {
    std::string rest;
    auto frame = ReadFrameFrom(LittleEndian(length) + payload, &rest);
    if (length > kMaxFrameBytes) {
      ASSERT_FALSE(frame.ok()) << length;
      EXPECT_EQ(frame.status().code(), util::Status::Code::kCorruption);
      EXPECT_EQ(rest, payload) << length;
    } else if (length <= payload.size()) {
      ASSERT_TRUE(frame.ok()) << length << ": " << frame.status().ToString();
      ASSERT_TRUE(frame.value().has_value());
      EXPECT_EQ(*frame.value(), payload.substr(0, length));
      EXPECT_EQ(rest, payload.substr(length));
    } else {
      ASSERT_FALSE(frame.ok()) << length;
      EXPECT_EQ(frame.status().code(), util::Status::Code::kCorruption);
    }
  }
}

}  // namespace
}  // namespace hinpriv::service
