#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/sync.hpp"

namespace vmstorm::sim {
namespace {

Task<void> client(Engine& e, FifoServer& srv, Bytes n, std::vector<double>* done) {
  co_await srv.serve(n);
  done->push_back(e.now_seconds());
}

TEST(FifoServer, SingleRequestTakesBytesOverRate) {
  Engine e;
  FifoServer srv(e, 100.0);  // 100 B/s
  std::vector<double> done;
  e.spawn(client(e, srv, 50, &done));
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.5);
}

TEST(FifoServer, RequestsSerialize) {
  Engine e;
  FifoServer srv(e, 100.0);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) e.spawn(client(e, srv, 100, &done));
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_EQ(srv.bytes_served(), 300u);
  EXPECT_EQ(srv.requests(), 3u);
}

Task<void> late_client(Engine& e, FifoServer& srv, SimTime at, Bytes n,
                       std::vector<double>* done) {
  co_await e.sleep(at);
  co_await srv.serve(n);
  done->push_back(e.now_seconds());
}

TEST(FifoServer, IdleServerStartsImmediately) {
  Engine e;
  FifoServer srv(e, 100.0);
  std::vector<double> done;
  e.spawn(late_client(e, srv, from_seconds(5.0), 100, &done));
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 6.0);
}

TEST(FifoServer, OverheadPerRequest) {
  Engine e;
  FifoServer srv(e, 100.0, from_seconds(0.25));
  std::vector<double> done;
  e.spawn(client(e, srv, 100, &done));
  e.spawn(client(e, srv, 100, &done));
  e.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.25);
  EXPECT_DOUBLE_EQ(done[1], 2.5);
}

TEST(FifoServer, BacklogReflectsQueue) {
  Engine e;
  FifoServer srv(e, 100.0);
  std::vector<double> done;
  e.spawn(client(e, srv, 200, &done));
  e.spawn([](Engine& eng, FifoServer& s) -> Task<void> {
    co_await eng.sleep(from_seconds(1.0));
    EXPECT_DOUBLE_EQ(to_seconds(s.backlog()), 1.0);
  }(e, srv));
  e.run();
}

TEST(FifoServer, ZeroBytesCostsOnlyOverhead) {
  Engine e;
  FifoServer srv(e, 100.0, from_seconds(0.5));
  std::vector<double> done;
  e.spawn(client(e, srv, 0, &done));
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.5);
}

TEST(FifoServer, UtilizationAccounting) {
  Engine e;
  FifoServer srv(e, 1000.0);
  std::vector<double> done;
  e.spawn(client(e, srv, 500, &done));
  e.spawn(late_client(e, srv, from_seconds(10.0), 500, &done));
  e.run();
  EXPECT_DOUBLE_EQ(to_seconds(srv.busy_time()), 1.0);
  EXPECT_EQ(srv.bytes_served(), 1000u);
}

TEST(FifoServer, CancelledRequestLeavesNoInflight) {
  Engine e;
  FifoServer srv(e, 100.0);
  std::vector<double> done;
  // Started by hand rather than spawned, so the test owns the frame and can
  // destroy it while its request is in service.
  auto first = client(e, srv, 100, &done).release();
  first.resume();                        // served over [0, 1)
  e.spawn(client(e, srv, 100, &done));  // queued behind it: [1, 2)
  e.run(from_seconds(0.5));
  EXPECT_EQ(srv.inflight(), 2u);
  first.destroy();
  EXPECT_EQ(srv.inflight(), 1u);
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);
  EXPECT_EQ(e.cancelled_wakeups(), 1u);
  EXPECT_EQ(srv.inflight(), 0u);
  EXPECT_EQ(srv.inflight_high_water(), 2u);
}

}  // namespace
}  // namespace vmstorm::sim
