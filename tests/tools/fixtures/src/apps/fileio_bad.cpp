// Fixture: whole-file I/O beside common/file_io — one deliberate escape
// (must stay suppressed) and three violations, the include among them.
#include <cstdio>
#include <fstream>  // fileio-include

namespace fixture::apps {

void save(const char* path) {
  std::ofstream out(path, std::ios::trunc);  // fileio-ofstream
  out << "state";
  // vmlint:allow(file-io-discipline) fixture: the escape hatch must hold
  std::FILE* f = std::fopen(path, "r");
  std::FILE* g = std::freopen(path, "r", f);  // fileio-freopen
  std::fclose(g);
}

}  // namespace fixture::apps
