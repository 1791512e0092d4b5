// Fork-join over the host's hardware threads, for post-processing that cuts
// one input into independent parts: the trace export, the trace reader and
// the critical-path analyzer (src/obs). Nothing simulated runs here; the
// engine and every model layer stay on one thread.
//
// fork_join(k, fn) runs fn(0) on the caller and fn(1) ... fn(k-1) each on a
// std::jthread of its own. It joins every part before it returns, then
// rethrows the exception of the lowest-numbered part that threw. A part
// whose thread cannot start runs on the caller instead. Callers size k with
// part_count(), which is 1 (no thread at all) for an input smaller than two
// parts, and cut the input with part_range(). Each part writes only its own
// output and the caller merges the parts in index order, so a result can
// not depend on k.
//
// Starting a thread costs the rest of the process too: once a second thread
// has existed, glibc's malloc takes its arena lock and libstdc++'s
// shared_ptr counts atomically, even after the thread is gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace vmstorm {

/// Parts for `items` units of work at `min_part` units or more a part:
/// min(hardware threads, items / min_part), and at least 1.
inline std::size_t part_count(std::size_t items, std::size_t min_part) {
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(items / std::max<std::size_t>(min_part, 1), 1,
                                 threads);
}

/// Half-open index range of one part.
struct PartRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Part `p` of `items` cut into `parts` (>= 1) contiguous ranges whose sizes
/// differ by at most one; the first items % parts parts hold the extra one.
inline PartRange part_range(std::size_t items, std::size_t parts,
                            std::size_t p) {
  const std::size_t base = items / parts;
  const std::size_t extra = items % parts;
  const std::size_t begin = p * base + std::min(p, extra);
  return {begin, begin + base + (p < extra ? 1 : 0)};
}

/// Runs fn(p) for every p in [0, parts): part 0 on the caller, the others
/// on one std::jthread each (on the caller when a thread cannot start).
/// Returns once every part has finished; if any part threw, rethrows the
/// exception of the lowest-numbered one. parts <= 1 runs fn(0) here.
template <typename Fn>
void fork_join(std::size_t parts, Fn&& fn) {
  if (parts <= 1) {
    fn(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(parts);
  const auto run = [&fn, &errors](std::size_t p) {
    try {
      fn(p);
    } catch (...) {
      errors[p] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(parts - 1);
    for (std::size_t p = 1; p < parts; ++p) {
      try {
        threads.emplace_back(run, p);
      } catch (const std::system_error&) {
        run(p);
      }
    }
    run(0);
  }  // every jthread joins here
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace vmstorm
