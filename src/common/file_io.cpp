#include "common/file_io.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace vmstorm {

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

}  // namespace vmstorm
