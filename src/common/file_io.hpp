// Whole files, and whole-buffer positional writes, on POSIX descriptors.
//
// read_file and write_file are the one way src/, bench/, examples/ and
// tools/ read or write a whole file (vmlint's file-io-discipline rule).
// pwrite_all is the one loop in src/ that writes a whole buffer with
// pwrite(2), which may write fewer bytes than asked or be interrupted by a
// signal: the mirror's fill, imgfs's PosixFileDevice and write_file use it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm {

/// UNAVAILABLE "<what> <path>: <errno text>" for the call that set errno.
Status errno_status(const char* what, const std::string& path);

/// Writes all of `in` to `fd` at file offset `offset`. Fails UNAVAILABLE
/// with the errno text on an error, or if the kernel accepts no bytes.
Status pwrite_all(int fd, Bytes offset, std::span<const std::byte> in);

/// The file at `path`, read to end of file (so a /proc file, whose size
/// reads as 0, is read whole). NOT_FOUND if `path` does not exist,
/// UNAVAILABLE with the path and errno text on any other failure.
Result<std::string> read_file(const std::string& path);

/// Replaces the file at `path` with `bytes`: writes `<path>.tmp`, closes
/// it and renames it over `path`; on any failure the temp file is removed
/// and `path` is left as it was. Nothing is fsynced (see ROADMAP item 4).
Status write_file(const std::string& path, std::string_view bytes);

}  // namespace vmstorm
