#include "common/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

namespace vmstorm {

Status errno_status(const char* what, const std::string& path) {
  return unavailable(std::string(what) + " " + path + ": " +
                     std::strerror(errno));
}

Status pwrite_all(int fd, Bytes offset, std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const ssize_t n = ::pwrite(fd, in.data() + done, in.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return unavailable(std::string("pwrite: ") + std::strerror(errno));
    if (n == 0) return unavailable("pwrite: no bytes written");
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) return not_found("no file " + path);
  if (fd < 0) return errno_status("open", path);
  std::string out;
  struct stat info {};
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    out.reserve(static_cast<std::size_t>(info.st_size));
  }
  char buf[64 * 1024];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  const Status st = n < 0 ? errno_status("read", path) : Status::ok();
  ::close(fd);
  if (!st.is_ok()) return st;
  return out;
}

Status write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) return errno_status("open", tmp);
  Status st = pwrite_all(fd, 0, std::as_bytes(std::span(bytes)));
  if (!st.is_ok()) st = unavailable("write " + tmp + ": " + st.message());
  // close reports a write error the kernel deferred (NFS, quota).
  if (::close(fd) != 0 && st.is_ok()) st = errno_status("close", tmp);
  if (st.is_ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = errno_status("rename onto", path);
  }
  if (!st.is_ok()) std::remove(tmp.c_str());
  return st;
}

}  // namespace vmstorm
