#include "util/line_reader.h"

#include <algorithm>
#include <cstring>
#include <istream>

#include "util/string_util.h"

namespace hinpriv::util {

size_t LineReader::ReservedRows(uint64_t count) {
  return static_cast<size_t>(std::min(count, kMaxReservedRows));
}

LineReader::LineReader(std::istream& is, std::string_view format,
                       Status (*at_end)(std::string))
    : is_(is), format_(format), at_end_(at_end), buffer_(kChunkBytes) {}

Status LineReader::NextLine() {
  while (true) {
    std::string_view raw;
    const char* newline = static_cast<const char*>(
        std::memchr(buffer_.data() + scanned_, '\n', end_ - scanned_));
    if (newline != nullptr) {
      const size_t at = static_cast<size_t>(newline - buffer_.data());
      raw = std::string_view(buffer_.data() + begin_, at - begin_);
      begin_ = scanned_ = at + 1;
    } else {
      scanned_ = end_;
      if (Fill()) continue;
      if (begin_ == end_) {
        return at_end_("unexpected end of " + format_ + " stream");
      }
      // The last line need not end in '\n'.
      raw = std::string_view(buffer_.data() + begin_, end_ - begin_);
      begin_ = scanned_ = end_;
    }
    line_ = Trim(raw);
    if (!line_.empty()) return Status::OK();
  }
}

Status LineReader::Split(size_t min_fields) {
  util::Split(line_, ' ', &fields_);
  if (fields_.size() < min_fields) {
    return Status::Corruption("malformed " + format_ + " line: '" +
                              std::string(line_) + "'");
  }
  return Status::OK();
}

Status LineReader::NextRow(size_t min_fields) {
  HINPRIV_RETURN_IF_ERROR(NextLine());
  return Split(min_fields);
}

bool LineReader::Fill() {
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    scanned_ -= begin_;
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  is_.read(buffer_.data() + end_,
           static_cast<std::streamsize>(buffer_.size() - end_));
  const size_t got = static_cast<size_t>(is_.gcount());
  end_ += got;
  return got > 0;
}

}  // namespace hinpriv::util
