#include "imgfs/block_device.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/file_io.hpp"

namespace vmstorm::imgfs {

Status MemDevice::pread(Bytes offset, std::span<std::byte> out) {
  if (offset > data_.size() || out.size() > data_.size() - offset) {
    return out_of_range("read past end");
  }
  std::memcpy(out.data(), data_.data() + offset, out.size());
  return Status::ok();
}

Status MemDevice::pwrite(Bytes offset, std::span<const std::byte> in) {
  if (offset > data_.size() || in.size() > data_.size() - offset) {
    return out_of_range("write past end");
  }
  std::memcpy(data_.data() + offset, in.data(), in.size());
  return Status::ok();
}

void LatencyDevice::spin() const {
  // Busy-wait on the real clock: this device emulates kernel/user crossing
  // cost for real (non-simulated) imgfs runs and never feeds seeded results.
  // vmlint:allow(determinism) wall-clock by design: real-latency emulation
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(per_op_nanos_);
  // vmlint:allow(determinism) wall-clock by design: real-latency emulation
  while (std::chrono::steady_clock::now() < until) {
    // busy-wait: emulated kernel/user crossing cost
  }
}

Result<std::unique_ptr<PosixFileDevice>> PosixFileDevice::open(
    const std::string& path, Bytes size) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return errno_status("open", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return errno_status("ftruncate", path);
  }
  return std::unique_ptr<PosixFileDevice>(new PosixFileDevice(fd, size));
}

PosixFileDevice::~PosixFileDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixFileDevice::pread(Bytes offset, std::span<std::byte> out) {
  if (offset > size_ || out.size() > size_ - offset) {
    return out_of_range("read past end");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) return unavailable(std::string("pread: ") + std::strerror(errno));
    if (n == 0) {
      // Sparse tail: reads past written data within the truncated size
      // return zeros.
      std::memset(out.data() + done, 0, out.size() - done);
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status PosixFileDevice::pwrite(Bytes offset, std::span<const std::byte> in) {
  if (offset > size_ || in.size() > size_ - offset) {
    return out_of_range("write past end");
  }
  return pwrite_all(fd_, offset, in);
}

}  // namespace vmstorm::imgfs
