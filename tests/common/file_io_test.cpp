#include "common/file_io.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "support/file_size_limit.hpp"

namespace vmstorm {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/file_io_" + std::to_string(::getpid()) +
         "_" + name;
}

bool exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(FileIo, ReadFileReportsMissingAndUnreadablePaths) {
  auto missing = read_file(temp_path("never_written"));
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string dir = ::testing::TempDir();
  auto directory = read_file(dir);
  ASSERT_FALSE(directory.is_ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(directory.status().message().find(dir), std::string::npos)
      << directory.status().to_string();
}

TEST(FileIo, ReadFileReadsProcFilesWhole) {
  // /proc files report a size of 0; the read must still reach the end.
  auto status = read_file("/proc/self/status");
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  EXPECT_EQ(status->rfind("Name:", 0), 0u);
  EXPECT_NE(status->find("\nVmHWM:"), std::string::npos);
  EXPECT_EQ(status->back(), '\n');
}

TEST(FileIo, WriteFileReplacesTheFile) {
  const std::string path = temp_path("replace");
  std::string big(10000, 'a');  // past read_file's first page
  big[9999] = 'z';
  ASSERT_TRUE(write_file(path, big).is_ok());
  EXPECT_EQ(read_file(path).value(), big);
  ASSERT_TRUE(write_file(path, "short").is_ok());
  EXPECT_EQ(read_file(path).value(), "short");
  ASSERT_TRUE(write_file(path, "").is_ok());
  EXPECT_EQ(read_file(path).value(), "");
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileIo, FailedWriteKeepsThePreviousFile) {
  const std::string path = temp_path("keep");
  ASSERT_TRUE(write_file(path, "previous").is_ok());
  {
    // The first pwrite stops at the limit, the next fails with EFBIG.
    test_support::FileSizeLimit limit(100);
    const Status st = write_file(path, std::string(4096, 'x'));
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  }
  EXPECT_EQ(read_file(path).value(), "previous");
  EXPECT_FALSE(exists(path + ".tmp"));

  // A target that is a directory: the rename fails, the temp file goes.
  const std::string dir = temp_path("dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  EXPECT_EQ(write_file(dir, "bytes").code(), StatusCode::kUnavailable);
  EXPECT_FALSE(exists(dir + ".tmp"));
  ::rmdir(dir.c_str());

  // A missing directory: the temp file cannot even be created.
  EXPECT_EQ(write_file(temp_path("no_dir") + "/file", "bytes").code(),
            StatusCode::kUnavailable);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vmstorm
