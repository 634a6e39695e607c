#ifndef HINPRIV_UTIL_LINE_READER_H_
#define HINPRIV_UTIL_LINE_READER_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/status.h"

namespace hinpriv::util {

// The line reader of the text formats (the graph format in hin/io.h and
// the delta stream in hin/graph_delta.h). It pulls the stream through one
// buffer in read() chunks of kChunkBytes, never the whole stream at once,
// and yields each line that is not empty once trimmed (Trim) as a view into
// that buffer, so a line costs no allocation and no copy. A row's fields
// are split on single spaces into views of the line, keeping empty fields
// so that doubled separators stay detectable.
//
// The reader reads ahead of the line it yields, so the stream is consumed
// past the format's terminator; the loaders own their streams.
class LineReader {
 public:
  // The buffer's size, and so the most one read() asks of the stream: each
  // read fills the room behind the unread tail of the last line. The
  // buffer grows only for a line longer than it holds.
  static constexpr size_t kChunkBytes = 64 * 1024;

  // Section counts come from the file, so a loader reserves at most
  // kMaxReservedRows rows up front, min(count, kMaxReservedRows): a false
  // count then fails at its first missing row instead of forcing a large
  // allocation.
  static constexpr uint64_t kMaxReservedRows = 1 << 16;
  static size_t ReservedRows(uint64_t count);

  // `format` names the format in error messages ("graph", "delta"); a
  // stream that ends before the parser is done is `at_end`'s status, for
  // example &Status::Corruption.
  LineReader(std::istream& is, std::string_view format,
             Status (*at_end)(std::string));

  // line() and fields() view this reader's own buffer; a copy would
  // hand out views into another object's.
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  // Advances to the next non-empty line. Until the next call, line() is
  // that line, trimmed.
  Status NextLine();

  // Splits line() into fields(); fewer than `min_fields` is Corruption.
  Status Split(size_t min_fields);

  // NextLine(), then Split(min_fields).
  Status NextRow(size_t min_fields);

  std::string_view line() const { return line_; }
  const std::vector<std::string_view>& fields() const { return fields_; }

  // The bulk rows' fast path: parses line() as exactly one field per
  // argument, separated by single spaces, each plain decimal digits (with
  // a '-' for a signed type) that its type holds, straight into `out...`
  // by std::from_chars. False for any other line — with out... unspecified
  // — which the caller then splits and parses field by field with the
  // util::Parse* functions, for its exact Status; every line this accepts,
  // those accept with the same values. It is there for speed alone: it
  // skips the split and the per-field Result, which DESIGN.md §5 measures
  // at about a quarter of a text graph's load time.
  template <typename... T>
  bool ParsePlain(T*... out) const {
    const char* p = line_.data();
    const char* const end = p + line_.size();
    bool first = true;
    const auto field = [&](auto* value) {
      if (!first) {
        if (p == end || *p != ' ') return false;
        ++p;
      }
      first = false;
      const std::from_chars_result parsed = std::from_chars(p, end, *value);
      p = parsed.ptr;
      return parsed.ec == std::errc();
    };
    return (field(out) && ...) && p == end;
  }

 private:
  // Moves the unread bytes to the front of the buffer and reads behind
  // them; false when the stream has nothing more.
  bool Fill();

  std::istream& is_;
  std::string format_;
  Status (*at_end_)(std::string);
  std::vector<char> buffer_;
  size_t begin_ = 0;    // first unread byte
  size_t scanned_ = 0;  // [begin_, scanned_) holds no '\n'
  size_t end_ = 0;      // bytes in the buffer
  std::string_view line_;
  std::vector<std::string_view> fields_;
};

}  // namespace hinpriv::util

#endif  // HINPRIV_UTIL_LINE_READER_H_
