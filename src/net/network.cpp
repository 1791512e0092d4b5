#include "net/network.hpp"

#include "obs/recorder.hpp"
#include "sim/causal.hpp"

namespace vmstorm::net {

Network::Network(sim::Engine& engine, std::size_t node_count, NetworkConfig cfg)
    : engine_(&engine), cfg_(cfg) {
  if (obs::Recorder* rec = engine.recorder()) {
    obs_transfers_ = &rec->metrics.counter("net.transfers");
    obs_queue_wait_ = &rec->metrics.histogram("net.queue_wait_seconds");
    obs_transfer_time_ = &rec->metrics.histogram("net.transfer_seconds");
  }
  nodes_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) add_node();
}

bool Network::open_connection(NetNode& src, NodeId dst) {
  if (dst >= src.connected_.size()) src.connected_.resize(nodes_.size());
  if (src.connected_[dst]) return false;
  src.connected_[dst] = true;
  ++connections_opened_;
  return true;
}

NodeId Network::add_node() {
  nodes_.push_back(std::make_unique<NetNode>(*engine_, cfg_));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  nodes_.back()->tx_.set_trace("net.tx", id);
  nodes_.back()->rx_.set_trace("net.rx", id);
  return id;
}

void Network::reset_connections() {
  for (auto& n : nodes_) n->connected_.clear();
  connections_opened_ = 0;
}

sim::Task<void> Network::transfer(NodeId src, NodeId dst, Bytes payload) {
  if (src == dst) co_return;  // local: no wire traffic, no NIC time
  const Bytes wire = payload + cfg_.per_message_overhead;
  total_traffic_ += wire;
  total_payload_ += payload;
  ++total_messages_;
  if (obs_transfers_) obs_transfers_->add();

  NetNode& s = node(src);
  NetNode& d = node(dst);
  s.bytes_sent_ += wire;
  d.bytes_received_ += wire;

  const double start = engine_->now_seconds();
  // Splitting latency into queue wait vs service: the TX backlog at arrival
  // is the queueing component; everything past it is transfer + propagation.
  if (obs_queue_wait_) {
    obs_queue_wait_->record(sim::to_seconds(s.tx_.backlog()));
  }

  // Each transfer is a span: the NIC wait/svc events it generates parent
  // under it, and the propagation/handshake sleeps (invisible to any
  // FifoServer) are recorded as explicit cost events.
  sim::SpanScope span(*engine_);

  if (cfg_.connection_setup > 0 && open_connection(s, dst)) {
    const double conn_start = engine_->now_seconds();
    co_await engine_->sleep(cfg_.connection_setup);
    if (obs::Tracer* tr = sim::live_tracer(*engine_)) {
      tr->complete_in(conn_start, engine_->now_seconds() - conn_start, src,
                      "svc", "net.conn", span.id());
    }
  }
  co_await s.tx_.serve_with_overhead(wire, cfg_.per_message_cpu);
  const double lat_start = engine_->now_seconds();
  co_await engine_->sleep(cfg_.latency);
  if (obs::Tracer* tr = sim::live_tracer(*engine_)) {
    tr->complete_in(lat_start, engine_->now_seconds() - lat_start, src, "svc",
                    "net.latency", span.id());
  }
  co_await d.rx_.serve_with_overhead(wire, cfg_.per_message_cpu);

  if (obs_transfer_time_) {
    obs_transfer_time_->record(engine_->now_seconds() - start);
  }
  if (span) {
    span.finish(src, "net", "transfer",
                {obs::TraceArg::uint("dst", dst),
                 obs::TraceArg::uint("bytes", payload)});
  }
}

sim::Task<void> Network::round_trip(NodeId client, NodeId server,
                                    Bytes request_bytes, Bytes response_bytes,
                                    sim::Task<void> server_work) {
  co_await transfer(client, server, request_bytes);
  co_await std::move(server_work);
  co_await transfer(server, client, response_bytes);
}

namespace {
sim::Task<void> noop() { co_return; }
}  // namespace

sim::Task<void> Network::small_rpc(NodeId client, NodeId server,
                                   Bytes request_bytes, Bytes response_bytes) {
  // Metadata-sized RPC: everything underneath (transfers, NIC queueing)
  // buckets as metadata time in the critical-path attribution.
  sim::SpanScope span(*engine_);
  co_await round_trip(client, server, request_bytes, response_bytes, noop());
  if (span) {
    span.finish(client, "net", "rpc",
                {obs::TraceArg::str("bucket", "metadata")});
  }
}

}  // namespace vmstorm::net
