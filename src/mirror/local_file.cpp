#include "mirror/local_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "common/file_io.hpp"

namespace vmstorm::mirror {

Result<std::unique_ptr<LocalMirrorFile>> LocalMirrorFile::open(
    const std::string& path, Bytes size, Existing existing) {
  if (size == 0) return invalid_argument("mirror file size must be > 0");
  const bool create = existing == Existing::kCreate;
  const int fd = ::open(path.c_str(), create ? O_RDWR | O_CREAT : O_RDWR, 0644);
  if (fd < 0) {
    if (!create && errno == ENOENT) {
      return corruption("sidecar without its mirror file " + path);
    }
    return errno_status("open", path);
  }
  if (!create) {
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return errno_status("fstat", path);
    }
    if (static_cast<Bytes>(st.st_size) != size) {
      ::close(fd);
      return corruption("mirror file " + path + " holds " +
                        std::to_string(st.st_size) +
                        " bytes, not the image's " + std::to_string(size));
    }
  } else if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return errno_status("ftruncate", path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return errno_status("mmap", path);
  }
  return std::unique_ptr<LocalMirrorFile>(new LocalMirrorFile(
      path, fd, static_cast<std::byte*>(map), size));
}

LocalMirrorFile::~LocalMirrorFile() {
  if (map_ != nullptr) ::munmap(map_, size_);
  if (fd_ >= 0) ::close(fd_);
}

Status LocalMirrorFile::fill(Bytes offset, std::span<const std::byte> bytes) {
  VMSTORM_RETURN_IF_ERROR(pwrite_all(fd_, offset, bytes));
  (void)::sync_file_range(fd_, static_cast<off_t>(offset),
                          static_cast<off_t>(bytes.size()),
                          SYNC_FILE_RANGE_WRITE);
  return Status::ok();
}

Status LocalMirrorFile::sync() {
  if (::fdatasync(fd_) != 0) return errno_status("fdatasync", path_);
  return Status::ok();
}

}  // namespace vmstorm::mirror
