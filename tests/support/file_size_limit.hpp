// Makes this process's file writes fail with EFBIG past a size, so a test
// can watch a save fail the way a full disk makes it fail.
#pragma once

#include <sys/resource.h>

#include <csignal>

namespace vmstorm::test_support {

/// Lowers RLIMIT_FSIZE's soft limit to `bytes` and ignores SIGXFSZ, so a
/// write that would grow a file past `bytes` fails with EFBIG instead of
/// killing the process. Both are restored when the guard goes.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = nullptr;
};

}  // namespace vmstorm::test_support
