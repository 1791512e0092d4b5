// Counts heap allocations on the simulated message path. This file replaces
// the global operator new, so it is a test binary of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "net/network.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vmstorm {
namespace {

// Once frames, wait records and the event queue have warmed up, a message
// costs no allocation: the transfer frame comes back from the frame pool,
// the NIC serves are awaiters, and the connection table is a bitmap.
TEST(MessagePath, SteadyStateTransfersAllocateNothing) {
  sim::Engine e;
  net::Network network(e, 2);
  std::size_t steady = ~std::size_t{0};
  e.spawn([](net::Network& n, std::size_t* out) -> sim::Task<void> {
    for (int i = 0; i < 10000; ++i) co_await n.transfer(0, 1, 4096);
    const std::size_t before = g_allocations;
    for (int i = 0; i < 10000; ++i) co_await n.transfer(0, 1, 4096);
    *out = g_allocations - before;
  }(network, &steady));
  e.run();
  EXPECT_EQ(network.total_messages(), 20000u);
  EXPECT_EQ(steady, 0u);
}

}  // namespace
}  // namespace vmstorm
