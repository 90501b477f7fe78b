// Uniquely named scratch files for tests.
//
// ctest runs every discovered test in its own process, and under `ctest -j`
// those processes run side by side, so a fixed name under
// temp_directory_path() is shared by every instance that writes it. mkstemp
// creates a fresh name atomically, which no concurrent process can collide
// with.
#pragma once

#include <stdlib.h>  // mkstemp
#include <unistd.h>  // close

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace aptq {

/// A new empty file `<temp dir>/<stem>_XXXXXX`, removed when the object goes
/// out of scope. A test may replace the file by a directory of the same
/// name (a cache directory, say); the destructor removes whichever is there.
class ScopedTempFile {
 public:
  explicit ScopedTempFile(const std::string& stem = "aptq_test") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (stem + "_XXXXXX"))
            .string();
    const int fd = mkstemp(pattern.data());
    if (fd < 0) {
      throw std::system_error(errno, std::generic_category(),
                              "mkstemp " + pattern);
    }
    close(fd);
    path_ = std::move(pattern);
  }
  ScopedTempFile(ScopedTempFile&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ScopedTempFile(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(ScopedTempFile&&) = delete;
  ~ScopedTempFile() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace aptq
