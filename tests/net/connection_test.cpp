#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "imgfs/block_device.hpp"

namespace vmstorm {
namespace {

using net::NetworkConfig;
using net::Network;
using sim::Engine;
using sim::Task;

TEST(ConnectionSetup, FirstMessagePaysHandshake) {
  Engine e;
  NetworkConfig cfg;
  cfg.link_rate = 100.0;
  cfg.latency = 0;
  cfg.per_message_overhead = 0;
  cfg.per_message_cpu = 0;
  cfg.connection_setup = sim::from_seconds(0.5);
  Network net(e, 2, cfg);
  double first = 0, second = 0;
  e.spawn([](Engine& eng, Network& n, double* a, double* b) -> Task<void> {
    co_await n.transfer(0, 1, 100);
    *a = eng.now_seconds();
    co_await n.transfer(0, 1, 100);
    *b = eng.now_seconds();
  }(e, net, &first, &second));
  e.run();
  EXPECT_DOUBLE_EQ(first, 0.5 + 2.0);   // handshake + tx + rx
  EXPECT_DOUBLE_EQ(second - first, 2.0);  // established: no handshake
  EXPECT_EQ(net.connections_opened(), 1u);
}

TEST(ConnectionSetup, DirectionalAndPerPair) {
  Engine e;
  NetworkConfig cfg;
  cfg.link_rate = 1e9;
  cfg.latency = 0;
  cfg.per_message_overhead = 0;
  cfg.per_message_cpu = 0;
  cfg.connection_setup = sim::from_seconds(0.1);
  Network net(e, 3, cfg);
  e.spawn([](Network& n) -> Task<void> {
    co_await n.transfer(0, 1, 10);
    co_await n.transfer(1, 0, 10);  // reverse direction: its own handshake
    co_await n.transfer(0, 2, 10);
    co_await n.transfer(0, 1, 10);  // reuse
  }(net));
  e.run();
  EXPECT_EQ(net.connections_opened(), 3u);
  net.reset_connections();
  EXPECT_EQ(net.connections_opened(), 0u);
}

TEST(ConnectionSetup, ZeroSetupRecordsNoConnections) {
  Engine e;
  NetworkConfig cfg;
  cfg.connection_setup = 0;
  Network net(e, 3, cfg);
  e.spawn([](Network& n) -> Task<void> {
    co_await n.transfer(0, 1, 10);
    co_await n.transfer(1, 0, 10);
    co_await n.transfer(0, 2, 10);
  }(net));
  e.run();
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.connections_opened(), 0u);
}

TEST(ConnectionSetup, NodeAddedAfterTrafficPaysItsOwnHandshake) {
  Engine e;
  NetworkConfig cfg;
  cfg.link_rate = 1e9;
  cfg.latency = 0;
  cfg.per_message_overhead = 0;
  cfg.per_message_cpu = 0;
  cfg.connection_setup = sim::from_seconds(0.5);
  Network net(e, 2, cfg);
  std::vector<double> took;  // per transfer to or from the added node
  e.spawn([](Engine& eng, Network& n, std::vector<double>* out) -> Task<void> {
    co_await n.transfer(0, 1, 0);
    const net::NodeId added = n.add_node();
    const net::NodeId pairs[][2] = {
        {0, added}, {added, 0}, {1, added}, {added, 1}};
    for (int round = 0; round < 2; ++round) {
      for (const auto& p : pairs) {
        const double t0 = eng.now_seconds();
        co_await n.transfer(p[0], p[1], 0);
        out->push_back(eng.now_seconds() - t0);
      }
    }
  }(e, net, &took));
  e.run();
  ASSERT_EQ(took.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(took[i], 0.5) << i;
  for (std::size_t i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(took[i], 0.0) << i;
  EXPECT_EQ(net.connections_opened(), 5u);
}

TEST(LatencyDevice, ChargesRealTimePerOp) {
  imgfs::MemDevice mem(4096);
  imgfs::LatencyDevice dev(mem, 2'000'000);  // 2 ms/op
  std::vector<std::byte> buf(16);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(dev.pwrite(0, buf).is_ok());
  ASSERT_TRUE(dev.pread(0, buf).is_ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(elapsed, 0.004);
  EXPECT_EQ(dev.size(), 4096u);
}

}  // namespace
}  // namespace vmstorm
