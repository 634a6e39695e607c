#ifndef HINPRIV_UTIL_MAPPED_FILE_H_
#define HINPRIV_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace hinpriv::util {

// Read-only memory mapping of a whole file. The mapping is private to this
// object and unmapped on destruction; the bytes it exposes are stable for
// the object's lifetime, so long-lived views (std::span over a mapped graph
// snapshot) may outlive any copy/move gymnastics as long as they do not
// outlive the MappedFile itself.
//
// The mapping is MAP_SHARED, so stability assumes writers never rewrite a
// mapped file in place: they write a new file and rename() it over the old
// path (as hin::SaveGraphSnapshot does), which leaves this mapping on the
// old inode. Truncating a mapped file raises SIGBUS on the next access.
//
// Move-only: moving transfers the mapping without remapping, so spans taken
// from data() before a move remain valid afterwards.
class MappedFile {
 public:
  // Maps `path` read-only and hints the kernel to start readahead for the
  // whole range (madvise MADV_WILLNEED); pages still fault in lazily.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MappedFile(const uint8_t* data, size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace hinpriv::util

#endif  // HINPRIV_UTIL_MAPPED_FILE_H_
