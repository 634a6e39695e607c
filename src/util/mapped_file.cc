#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace hinpriv::util {

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for mmap: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("fstat failed: " + path + ": " +
                           std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("not a regular file: " + path);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    return Status::Corruption("empty file cannot be mapped: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is no
  // longer needed either way.
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path + ": " +
                           std::strerror(errno));
  }
  ::madvise(mapping, size, MADV_WILLNEED);  // advisory; ignore failure
  return MappedFile(static_cast<const uint8_t*>(mapping), size, path);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

}  // namespace hinpriv::util
