"""file-io-discipline: whole files are read and written in one place.

read_file() and write_file() (src/common/file_io.cpp) are the one way the
program's C++ reads or writes a whole file. write_file() replaces its
target by rename, so a save that fails leaves the previous file intact,
and read_file() reports a missing file as NOT_FOUND and any other failure
as UNAVAILABLE with the path. A std::ofstream instead truncates the target
first and reports its last flush nowhere (it runs in the destructor); an
ifstream on a directory reads as an empty file. Either one beside the
helpers is a second file path with weaker guarantees.

Scope: the C++ of src/, bench/, examples/ and tools/, outside
src/common/file_io.cpp; tests/ may build their inputs however they like.
Suppress a deliberate exception with
`// vmlint:allow(file-io-discipline) <reason>`.
"""

from core import Finding

STREAM_NAMES = {"ifstream", "ofstream", "fstream", "fopen", "freopen"}
SCOPE = ("src", "bench", "examples", "tools")
HELPER_FILE = "src/common/file_io.cpp"


class FileIoDisciplineRule:
    name = "file-io-discipline"
    description = ("file streams or fopen outside common/file_io's "
                   "read_file()/write_file()")

    def visit(self, sf, tokens):
        if not sf.in_dir(*SCOPE) or sf.rel == HELPER_FILE:
            return []
        findings = []
        toks = [t for t in tokens if t.kind not in ("comment", "disabled")]
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in STREAM_NAMES:
                continue
            if i > 0 and toks[i - 1].text in (".", "->"):
                continue  # a member that happens to share the name
            findings.append(Finding(
                self.name, sf.rel, t.line,
                f"{t.text} outside common/file_io; read and write whole "
                f"files with read_file()/write_file() "
                f"(src/common/file_io.hpp)",
                subrule="raw-file-stream"))
        return findings
