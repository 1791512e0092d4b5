// Fixture: the helpers' own TU may open files however it must. Must
// produce no finding.
#include <cstdio>

namespace fixture::common {

bool exists(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace fixture::common
