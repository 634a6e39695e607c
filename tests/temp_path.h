#ifndef HINPRIV_TESTS_TEMP_PATH_H_
#define HINPRIV_TESTS_TEMP_PATH_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hinpriv::testing_support {

// A scratch path for the running test, removed with everything it names
// when it goes out of scope. The path is
// "<TempDir>/<suite>.<test>.<leaf>" (a parameterized name's '/' becomes
// '_'), so tests that ctest runs side by side never share a file, and
// TempDir() is TEST_TMPDIR, which tests/CMakeLists.txt points at the build
// tree's tests/tmp.
//
// The path is also a stem: removal takes every file in the directory whose
// name starts with it, so a set of files named from one stem — shard
// slices, a "_src"/"_case" pair, a ".graph" beside a ".snap" — goes with
// it. Give two live TempPaths of one test leaves that are not prefixes of
// each other. Files may be removed while mapped; a mapping outlives its
// name.
class TempPath {
 public:
  explicit TempPath(std::string_view leaf) {
    const testing::TestInfo* test =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = test == nullptr
                           ? std::string("no_test")
                           : std::string(test->test_suite_name()) + "." +
                                 test->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = (std::filesystem::path(testing::TempDir()) /
             (name + "." + std::string(leaf)))
                .string();
  }
  ~TempPath() { Remove(); }

  TempPath(TempPath&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  TempPath& operator=(TempPath&& other) noexcept {
    if (this != &other) {
      Remove();
      path_ = std::exchange(other.path_, {});
    }
    return *this;
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() {
    if (path_.empty()) return;
    const std::filesystem::path stem(path_);
    const std::string prefix = stem.filename().string();
    std::vector<std::filesystem::path> named;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(stem.parent_path(), ec)) {
      if (entry.path().filename().string().starts_with(prefix)) {
        named.push_back(entry.path());
      }
    }
    for (const auto& file : named) std::filesystem::remove_all(file, ec);
  }

  std::string path_;
};

}  // namespace hinpriv::testing_support

#endif  // HINPRIV_TESTS_TEMP_PATH_H_
