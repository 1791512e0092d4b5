#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vmstorm {
namespace {

TEST(ForkJoin, SinglePartRunsOnTheCallersThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t parts : {0, 1}) {
    int calls = 0;
    fork_join(parts, [&](std::size_t p) {
      EXPECT_EQ(p, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, 1) << parts;
  }
}

TEST(ForkJoin, EveryPartRunsOnceAndOnlyPartZeroOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t parts : {2, 3, 7}) {
    std::vector<int> calls(parts, 0);
    std::vector<std::thread::id> ran_on(parts);
    fork_join(parts, [&](std::size_t p) {
      ++calls[p];
      ran_on[p] = std::this_thread::get_id();
    });
    for (std::size_t p = 0; p < parts; ++p) {
      EXPECT_EQ(calls[p], 1) << p;
      EXPECT_EQ(ran_on[p] == caller, p == 0) << p;
    }
  }
}

TEST(ForkJoin, ExceptionReachesTheCallerOnlyAfterEveryPartJoined) {
  constexpr std::size_t kParts = 4;
  std::array<std::atomic<bool>, kParts> finished{};
  try {
    fork_join(kParts, [&](std::size_t p) {
      if (p == 2) throw std::runtime_error("part 2");
      // The other parts outlast the throw by far.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished[p] = true;
    });
    FAIL() << "fork_join swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "part 2");
    for (std::size_t p = 0; p < kParts; ++p) {
      EXPECT_EQ(finished[p].load(), p != 2) << p;
    }
  }
}

TEST(ForkJoin, LowestNumberedPartsExceptionWins) {
  try {
    fork_join(5, [](std::size_t p) {
      // Part 4 throws first; part 1 throws last but is reported.
      if (p == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        throw std::runtime_error("part 1");
      }
      if (p == 4) throw std::runtime_error("part 4");
    });
    FAIL() << "fork_join swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "part 1");
  }
}

TEST(PartCount, AtLeastOneAndAtMostTheHardwareThreads) {
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(part_count(0, 100), 1u);
  EXPECT_EQ(part_count(199, 100), 1u);
  EXPECT_EQ(part_count(200, 100), std::min<std::size_t>(2, threads));
  EXPECT_EQ(part_count(1'000'000, 100), threads);
  EXPECT_EQ(part_count(5, 0), std::min<std::size_t>(5, threads));
}

TEST(PartRange, CutsContiguousNearEqualRanges) {
  for (std::size_t items : {0, 1, 6, 7, 100, 1001}) {
    for (std::size_t parts : {1, 2, 3, 7}) {
      std::size_t at = 0;
      for (std::size_t p = 0; p < parts; ++p) {
        const PartRange r = part_range(items, parts, p);
        EXPECT_EQ(r.begin, at) << items << "/" << parts << " part " << p;
        const std::size_t n = r.end - r.begin;
        EXPECT_TRUE(n == items / parts || n == items / parts + 1);
        at = r.end;
      }
      EXPECT_EQ(at, items) << items << "/" << parts;
    }
  }
}

}  // namespace
}  // namespace vmstorm
