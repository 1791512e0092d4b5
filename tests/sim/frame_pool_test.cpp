#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>

#include "sim/task.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define VMSTORM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VMSTORM_TEST_ASAN 1
#endif
#endif

namespace vmstorm::sim {
namespace {

Task<void> parked() { co_await std::suspend_always{}; }

TEST(FramePool, FreedBlockIsReusedByNextFrameOfItsClass) {
  FramePool pool;
  void* a = pool.allocate(100);
  void* b = pool.allocate(200);
  pool.deallocate(a, 100);
  EXPECT_EQ(pool.allocate(128), a);  // 100 and 128 share the 128 B class
  EXPECT_NE(pool.allocate(100), a);  // class list empty again: carved anew
  pool.deallocate(b, 200);
  EXPECT_NE(pool.allocate(100), b);  // another class's block is not taken
  EXPECT_EQ(pool.allocate(256), b);
}

TEST(FramePool, TaskFramesComeFromThePool) {
  auto h = parked().release();
  void* frame = h.address();
  h.destroy();
  auto again = parked().release();
  EXPECT_EQ(again.address(), frame);
  again.destroy();
}

TEST(FramePool, SlabsHoldManyFrames) {
  FramePool pool;
  EXPECT_EQ(pool.slabs(), 0u);
  const std::size_t per_slab =
      FramePool::kSlabBytes / FramePool::kClassBytes - 1;  // less the link
  for (std::size_t i = 0; i < per_slab; ++i) pool.allocate(48);
  EXPECT_EQ(pool.slabs(), 1u);
  pool.allocate(48);
  EXPECT_EQ(pool.slabs(), 2u);
}

TEST(FramePool, FramesOverOneKibBypassThePool) {
  FramePool pool;
  const std::size_t big = FramePool::kMaxPooledBytes + 1;
  for (int i = 0; i < 2; ++i) {  // the second one finds no free list either
    void* p = pool.allocate(big);
    EXPECT_EQ(pool.slabs(), 0u);
    pool.deallocate(p, big);
  }
  pool.allocate(FramePool::kMaxPooledBytes);
  EXPECT_EQ(pool.slabs(), 1u);
}

// Under AddressSanitizer a block on a free list is poisoned, so a destroyed
// pooled frame still reports when resumed, as a freed heap frame would.
TEST(FramePoolDeathTest, ResumingDestroyedFrameReportsUseAfterPoison) {
#ifdef VMSTORM_TEST_ASAN
  auto h = parked().release();
  h.destroy();
  EXPECT_DEATH(h.resume(), "use-after-poison");
#else
  GTEST_SKIP() << "needs -fsanitize=address";
#endif
}

}  // namespace
}  // namespace vmstorm::sim
