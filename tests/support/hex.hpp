// Lower-case hex of a byte string, for tests that pin a file format's
// exact bytes and want a readable diff when one moves.
#pragma once

#include <string>
#include <string_view>

namespace vmstorm::test_support {

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 15]);
  }
  return out;
}

}  // namespace vmstorm::test_support
