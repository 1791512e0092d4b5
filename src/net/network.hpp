// Cluster network model.
//
// Mirrors the paper's testbed (§5.1): commodity nodes on switched Gigabit
// Ethernet — full-duplex NICs, a non-blocking core switch (so only the
// endpoints' NICs contend), ~0.1 ms one-way latency, and a fixed per-message
// protocol overhead. Transfers are store-and-forward at message granularity;
// callers move data in chunk-sized messages, which is the same granularity
// at which the real system's transfers queue.
//
// The model also keeps the traffic accounting (per node and global) that
// Figure 4(d) plots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace vmstorm::obs {
class Counter;
class ExpHistogram;
}  // namespace vmstorm::obs

namespace vmstorm::net {

using NodeId = std::uint32_t;

struct NetworkConfig {
  /// Paper: measured 117.5 MB/s for TCP over GigE with MTU 1500.
  BytesPerSecond link_rate = mb_per_s(117.5);
  /// One-way latency (paper: ~0.1 ms).
  sim::SimTime latency = sim::from_micros(100);
  /// Protocol bytes added per message (headers, framing). At MTU 1500 with
  /// ~66 B of TCP/IP/Ethernet headers per packet this is ~4.6 % of payload;
  /// we fold it into a fixed per-message charge plus a small rate tax.
  Bytes per_message_overhead = 512;
  /// Fixed per-request software overhead at each endpoint (syscalls, RPC
  /// dispatch). Small reads are dominated by this + latency.
  sim::SimTime per_message_cpu = sim::from_micros(60);
  /// First message between a (src, dst) pair pays this connection handshake
  /// cost (TCP three-way ≈ 1 RTT, plus socket setup — fold the RTT in
  /// here). Captures the paper's §5.3 observation that snapshotting
  /// completion degrades as "more network connections need to be opened in
  /// parallel on each compute node". Set to 0 to disable.
  sim::SimTime connection_setup = sim::from_micros(500);
};

/// One endpoint: full-duplex NIC = independent TX and RX queues.
class NetNode {
 public:
  NetNode(sim::Engine& engine, const NetworkConfig& cfg)
      : tx_(engine, cfg.link_rate), rx_(engine, cfg.link_rate) {}

  sim::FifoServer& tx() { return tx_; }
  sim::FifoServer& rx() { return rx_; }

  Bytes bytes_sent() const { return bytes_sent_; }
  Bytes bytes_received() const { return bytes_received_; }

 private:
  friend class Network;
  sim::FifoServer tx_;
  sim::FifoServer rx_;
  Bytes bytes_sent_ = 0;
  Bytes bytes_received_ = 0;
  /// connected_[dst]: a connection to dst is open. Sized to the node count
  /// on first use, and again when a node added later is first reached.
  std::vector<bool> connected_;
};

class Network {
 public:
  Network(sim::Engine& engine, std::size_t node_count,
          NetworkConfig cfg = NetworkConfig{});

  sim::Engine& engine() { return *engine_; }
  const NetworkConfig& config() const { return cfg_; }
  std::size_t node_count() const { return nodes_.size(); }
  NetNode& node(NodeId id) { return *nodes_.at(id); }

  /// Adds a node (e.g. a dedicated NFS server) and returns its id.
  NodeId add_node();

  /// Moves `payload` bytes from src to dst: queue at src TX, propagate,
  /// queue at dst RX. Self-transfers are free (local memory).
  sim::Task<void> transfer(NodeId src, NodeId dst, Bytes payload);

  /// Request/response round trip with server-side work in between:
  /// request message -> (server work, the awaited `server_work`) -> response.
  /// Typical use: req = header-only, server work = disk read, resp = data.
  sim::Task<void> round_trip(NodeId client, NodeId server, Bytes request_bytes,
                             Bytes response_bytes,
                             sim::Task<void> server_work);

  /// Convenience for metadata-sized RPCs (request+response both tiny).
  sim::Task<void> small_rpc(NodeId client, NodeId server,
                            Bytes request_bytes = 256,
                            Bytes response_bytes = 256);

  /// Total bytes put on the wire (payload + protocol overhead), the
  /// quantity Figure 4(d) reports.
  Bytes total_traffic() const { return total_traffic_; }

  /// Payload-only traffic (excludes protocol overhead).
  Bytes total_payload() const { return total_payload_; }

  std::uint64_t total_messages() const { return total_messages_; }
  /// Distinct (src, dst) pairs connected since construction or the last
  /// reset_connections(); always 0 when connection_setup is 0.
  std::uint64_t connections_opened() const { return connections_opened_; }

  /// Forgets established connections (e.g. between benchmark repetitions).
  void reset_connections();

 private:
  /// Records the connection src -> dst; true when it was not yet open.
  bool open_connection(NetNode& src, NodeId dst);

  sim::Engine* engine_;
  NetworkConfig cfg_;
  std::vector<std::unique_ptr<NetNode>> nodes_;
  std::uint64_t connections_opened_ = 0;
  Bytes total_traffic_ = 0;
  Bytes total_payload_ = 0;
  std::uint64_t total_messages_ = 0;
  // Metric handles cached from the engine's Recorder at construction; all
  // null when no recorder is attached (plain unit tests).
  obs::Counter* obs_transfers_ = nullptr;
  obs::ExpHistogram* obs_queue_wait_ = nullptr;
  obs::ExpHistogram* obs_transfer_time_ = nullptr;
};

}  // namespace vmstorm::net
