#include "obs/trace.h"

#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace hinpriv::obs {
namespace {

// --- minimal JSON parser ----------------------------------------------------
// Just enough JSON to validate the Chrome trace export structurally: objects,
// arrays, strings, numbers, booleans, null. Parse failure -> nullopt.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    std::optional<JsonValue> value = ParseValue();
    SkipSpace();
    if (!value.has_value() || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) return std::nullopt;
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return value;
    while (true) {
      std::optional<JsonValue> key = ParseString();
      if (!key.has_value() || !Consume(':')) return std::nullopt;
      std::optional<JsonValue> element = ParseValue();
      if (!element.has_value()) return std::nullopt;
      value.object.emplace(key->string, std::move(*element));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) return std::nullopt;
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return value;
    while (true) {
      std::optional<JsonValue> element = ParseValue();
      if (!element.has_value()) return std::nullopt;
      value.array.push_back(std::move(*element));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return std::nullopt;
      }
      value.string.push_back(text_[pos_]);
      ++pos_;
    }
    if (pos_ >= text_.size()) return std::nullopt;
    ++pos_;  // closing quote
    return value;
  }

  std::optional<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return std::nullopt;
  }

  std::optional<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return std::nullopt;
    pos_ += 4;
    return JsonValue{};
  }

  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return std::nullopt;
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::optional<JsonValue> ParseTrace(const std::string& json) {
  return JsonParser(json).Parse();
}

// --- tests ------------------------------------------------------------------

TEST(TraceTest, DisabledModeRecordsNothing) {
  StartTracing();  // clears leftovers from other tests
  StopTracing();
  EXPECT_FALSE(TracingEnabled());
  {
    HINPRIV_SPAN("should_not_record");
    HINPRIV_SPAN("nor_this");
  }
  EXPECT_EQ(NumRecordedTraceEvents(), 0u);
}

TEST(TraceTest, EmptyTraceIsValidJson) {
  StartTracing();
  StopTracing();
  const std::string json = ChromeTraceJson();
  const std::optional<JsonValue> root = ParseTrace(json);
  ASSERT_TRUE(root.has_value()) << json;
  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->kind, JsonValue::Kind::kArray);
  const JsonValue* unit = root->Get("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
}

TEST(TraceTest, BalancedSpansAcrossThreads) {
  StartTracing();
  EXPECT_TRUE(TracingEnabled());
  {
    HINPRIV_SPAN("outer");
    { HINPRIV_SPAN("inner"); }
  }
  std::thread worker([] {
    SetCurrentThreadName("trace-test-worker");
    HINPRIV_SPAN("worker_span");
  });
  worker.join();
  StopTracing();

  const std::string json = ChromeTraceJson();
  const std::optional<JsonValue> root = ParseTrace(json);
  ASSERT_TRUE(root.has_value()) << json;
  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  size_t begins = 0;
  size_t ends = 0;
  bool saw_worker_name = false;
  std::map<double, int> depth_by_tid;
  std::map<double, double> last_ts_by_tid;
  std::vector<std::string> begin_names;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    const JsonValue* tid = event.Get("tid");
    ASSERT_NE(tid, nullptr);
    const JsonValue* pid = event.Get("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->number, 1.0);
    if (ph->string == "M") {
      const JsonValue* args = event.Get("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* name = args->Get("name");
      ASSERT_NE(name, nullptr);
      if (name->string == "trace-test-worker") saw_worker_name = true;
      continue;
    }
    // Timestamps within one tid are in program order.
    const JsonValue* ts = event.Get("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->number, 0.0);
    auto [it, inserted] = last_ts_by_tid.emplace(tid->number, ts->number);
    if (!inserted) {
      EXPECT_GE(ts->number, it->second);
      it->second = ts->number;
    }
    if (ph->string == "B") {
      ++begins;
      ++depth_by_tid[tid->number];
      const JsonValue* name = event.Get("name");
      ASSERT_NE(name, nullptr);
      begin_names.push_back(name->string);
      const JsonValue* cat = event.Get("cat");
      ASSERT_NE(cat, nullptr);
      EXPECT_EQ(cat->string, "hinpriv");
    } else {
      ASSERT_EQ(ph->string, "E");
      ++ends;
      // An E never precedes its B within a tid.
      ASSERT_GT(depth_by_tid[tid->number], 0);
      --depth_by_tid[tid->number];
    }
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, 3u);
  for (const auto& [tid, depth] : depth_by_tid) {
    EXPECT_EQ(depth, 0) << "unbalanced spans on tid " << tid;
  }
  EXPECT_TRUE(saw_worker_name);
  EXPECT_EQ(std::count(begin_names.begin(), begin_names.end(), "outer"), 1);
  EXPECT_EQ(std::count(begin_names.begin(), begin_names.end(), "inner"), 1);
  EXPECT_EQ(std::count(begin_names.begin(), begin_names.end(), "worker_span"),
            1);
}

TEST(TraceTest, BoundedBufferDropsOldestAndCounts) {
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("obs/trace_dropped_events");
  dropped->Reset();
  SetTraceBufferCapacity(8);
  StartTracing();
  // 100 sequential spans = 200 events against a cap of 8: the oldest must
  // go, the newest must stay, and every eviction must be counted.
  for (int i = 0; i < 100; ++i) {
    HINPRIV_SPAN("bounded_span");
  }
  StopTracing();
  SetTraceBufferCapacity(1 << 16);  // restore the default for other tests

  EXPECT_LE(NumRecordedTraceEvents(), 8u);
  EXPECT_EQ(dropped->Value(), 200u - NumRecordedTraceEvents());

  // The export stays well-formed even when eviction split B/E pairs.
  const std::string json = ChromeTraceJson();
  const std::optional<JsonValue> root = ParseTrace(json);
  ASSERT_TRUE(root.has_value()) << json;
  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  int depth = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "B") ++depth;
    if (ph->string == "E") {
      ASSERT_GT(depth, 0) << "orphaned E escaped the exporter";
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, RequestIdAnnotatesSpans) {
  EXPECT_EQ(CurrentRequestId(), 0u);
  StartTracing();
  {
    ScopedRequestId rid(42);
    EXPECT_EQ(CurrentRequestId(), 42u);
    HINPRIV_SPAN("request_span");
    {
      ScopedRequestId nested(43);
      HINPRIV_SPAN("nested_request_span");
    }
    EXPECT_EQ(CurrentRequestId(), 42u);
  }
  EXPECT_EQ(CurrentRequestId(), 0u);
  { HINPRIV_SPAN("no_request_span"); }
  StopTracing();

  const std::string json = ChromeTraceJson();
  const std::optional<JsonValue> root = ParseTrace(json);
  ASSERT_TRUE(root.has_value()) << json;
  const JsonValue* events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, double> rid_by_name;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "B") continue;
    const JsonValue* name = event.Get("name");
    ASSERT_NE(name, nullptr);
    const JsonValue* args = event.Get("args");
    const JsonValue* rid =
        args != nullptr ? args->Get("rid") : nullptr;
    rid_by_name[name->string] = rid != nullptr ? rid->number : 0.0;
  }
  EXPECT_EQ(rid_by_name["request_span"], 42.0);
  EXPECT_EQ(rid_by_name["nested_request_span"], 43.0);
  EXPECT_EQ(rid_by_name["no_request_span"], 0.0);
}

TEST(TraceTest, RestartMidSpanDropsOrphanEnd) {
  StartTracing();
  {
    auto span = std::make_unique<ScopedSpan>("straddles_restart");
    // The restart wipes the B above; the span's destructor must notice the
    // epoch change and drop its E, or the export would be unbalanced.
    StartTracing();
    span.reset();
  }
  StopTracing();
  EXPECT_EQ(NumRecordedTraceEvents(), 0u);
}

// B and E counts of an export, and the span names it begins; fails the
// test when some track's brackets do not balance.
struct Brackets {
  size_t begins = 0;
  size_t ends = 0;
  std::vector<std::string> names;
};

Brackets CountBrackets(const std::string& json) {
  Brackets brackets;
  const std::optional<JsonValue> root = ParseTrace(json);
  EXPECT_TRUE(root.has_value()) << json;
  if (!root.has_value()) return brackets;
  const JsonValue* events = root->Get("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return brackets;
  std::map<double, int> depth_by_tid;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Get("ph");
    const JsonValue* tid = event.Get("tid");
    if (ph == nullptr || tid == nullptr) continue;
    if (ph->string == "B") {
      ++brackets.begins;
      ++depth_by_tid[tid->number];
      brackets.names.push_back(event.Get("name")->string);
    } else if (ph->string == "E") {
      ++brackets.ends;
      EXPECT_GT(depth_by_tid[tid->number], 0) << "E before its B";
      --depth_by_tid[tid->number];
    }
  }
  for (const auto& [tid, depth] : depth_by_tid) {
    EXPECT_EQ(depth, 0) << "unbalanced spans on tid " << tid;
  }
  return brackets;
}

// An export taken while a span is open (as right after a ParallelFor
// returns, before a worker's task span has closed) leaves that span out,
// and the next export, once it closed, has the pair.
TEST(TraceTest, ExportLeavesOutSpansStillOpen) {
  StartTracing();
  {
    HINPRIV_SPAN("still_open");
    { HINPRIV_SPAN("closed_inside"); }
    StopTracing();
    const Brackets open = CountBrackets(ChromeTraceJson());
    EXPECT_EQ(open.begins, 1u);
    EXPECT_EQ(open.ends, 1u);
    EXPECT_EQ(open.names, std::vector<std::string>{"closed_inside"});
  }
  const Brackets closed = CountBrackets(ChromeTraceJson());
  EXPECT_EQ(closed.begins, 2u);
  EXPECT_EQ(closed.ends, 2u);
  EXPECT_EQ(closed.names,
            (std::vector<std::string>{"still_open", "closed_inside"}));
}

TEST(TraceTest, SpanOpenAcrossStopStillCloses) {
  StartTracing();
  {
    HINPRIV_SPAN("straddles_stop");
    StopTracing();
  }
  // B and E both recorded: the B was already in the buffer when tracing
  // stopped, so dropping the E would export an unbalanced pair.
  EXPECT_EQ(NumRecordedTraceEvents(), 2u);
  const std::string json = ChromeTraceJson();
  const std::optional<JsonValue> root = ParseTrace(json);
  ASSERT_TRUE(root.has_value()) << json;
}

}  // namespace
}  // namespace hinpriv::obs
