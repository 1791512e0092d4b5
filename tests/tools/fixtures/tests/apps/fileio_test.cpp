// Fixture: tests build their input files with streams. Must produce no
// finding.
#include <fstream>

namespace fixture::tests {

void make_input(const char* path) { std::ofstream(path) << "input"; }

}  // namespace fixture::tests
