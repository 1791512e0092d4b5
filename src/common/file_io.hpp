// Whole-buffer positional writes to a POSIX file descriptor.
//
// pwrite(2) may write fewer bytes than asked or be interrupted by a signal;
// pwrite_all loops until every byte is written or a real error occurs. It
// is the one such loop in src/: the mirroring module fills its local file
// through it, and imgfs's PosixFileDevice writes through it.
#pragma once

#include <cstddef>
#include <span>

#include "common/status.hpp"
#include "common/units.hpp"

namespace vmstorm {

/// Writes all of `in` to `fd` at file offset `offset`. Fails UNAVAILABLE
/// with the errno text on an error, or if the kernel accepts no bytes.
Status pwrite_all(int fd, Bytes offset, std::span<const std::byte> in);

}  // namespace vmstorm
