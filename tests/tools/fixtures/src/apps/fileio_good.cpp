// Fixture: names the file-io-discipline rule must not take for a stream —
// this comment's std::ofstream, a "fopen" string literal and calls of a
// member that shares the name. Must produce no finding.
#include <string>

namespace fixture::apps {

template <typename Vfs>
int load(Vfs& vfs, Vfs* other) {
  const std::string name = "fopen";
  return vfs.fopen(name) + other->fopen("ifstream");
}

}  // namespace fixture::apps
