#include "dfs/sim_dfs.hpp"

#include <cassert>
#include <stdexcept>

#include "common/rng.hpp"
#include "sim/causal.hpp"

namespace vmstorm::dfs {

SimDfs::SimDfs(sim::Engine& engine, net::Network& network, StripedFs& fs,
               std::vector<net::NodeId> server_nodes,
               std::vector<storage::Disk*> server_disks, SimDfsConfig cfg)
    : engine_(&engine), network_(&network), fs_(&fs),
      server_nodes_(std::move(server_nodes)),
      server_disks_(std::move(server_disks)), cfg_(cfg) {
  assert(server_nodes_.size() == server_disks_.size());
  assert(server_nodes_.size() == fs.server_count());
  for (std::size_t i = 0; i < server_nodes_.size(); ++i) {
    server_cpus_.push_back(std::make_unique<sim::FifoServer>(
        engine, /*rate=*/1e18, cfg_.server_request_cpu));
    server_cpus_.back()->set_trace("dfs.cpu", server_nodes_[i]);
  }
}

std::uint64_t SimDfs::stripe_cache_key(FileId file,
                                       std::uint64_t stripe_index) const {
  return mix64((static_cast<std::uint64_t>(file) << 40) ^ stripe_index);
}

sim::Task<void> SimDfs::read_piece(net::NodeId client, FileId file,
                                   StripePiece piece) {
  // Repository-hinted span: DFS server disk/CPU time under it buckets as
  // repo_disk, the wire time as net_transfer.
  sim::SpanScope span(*engine_);
  auto server_work = [](SimDfs* self, FileId f, StripePiece p) -> sim::Task<void> {
    co_await self->server_cpus_.at(p.server)->serve(0);
    co_await self->server_disks_.at(p.server)->read(
        self->stripe_cache_key(f, p.stripe_index), p.length);
  }(this, file, piece);
  co_await network_->round_trip(client, server_nodes_.at(piece.server),
                                cfg_.request_bytes, piece.length,
                                std::move(server_work));
  if (span) {
    span.finish(client, "dfs", "read",
                {obs::TraceArg::str("bucket", "repo"),
                 obs::TraceArg::uint("bytes", piece.length)});
  }
}

sim::Task<void> SimDfs::write_piece(net::NodeId client, FileId file,
                                    StripePiece piece) {
  sim::SpanScope span(*engine_);
  auto server_work = [](SimDfs* self, FileId /*file*/, StripePiece p) -> sim::Task<void> {
    co_await self->server_cpus_.at(p.server)->serve(0);
    // PVFS acks a write once it is on the platter (no server-side write
    // cache) — the §5.3 contrast with BlobSeer's asynchronous-write ACK.
    co_await self->server_disks_.at(p.server)->write_sync(p.length);
  }(this, file, piece);
  co_await network_->round_trip(client, server_nodes_.at(piece.server),
                                cfg_.request_bytes + piece.length,
                                /*response_bytes=*/64, std::move(server_work));
  if (span) {
    span.finish(client, "dfs", "write",
                {obs::TraceArg::str("bucket", "repo"),
                 obs::TraceArg::uint("bytes", piece.length)});
  }
}

sim::Task<void> SimDfs::read(net::NodeId client, FileId file, Bytes offset,
                             Bytes length) {
  if (length == 0) co_return;
  auto pieces = fs_->layout(file, offset, length);
  if (!pieces.is_ok()) {
    throw std::runtime_error("SimDfs::read: " + pieces.status().to_string());
  }
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(pieces->size());
  for (const StripePiece& p : *pieces) {
    tasks.push_back(read_piece(client, file, p));
  }
  co_await sim::when_all(*engine_, std::move(tasks));
}

sim::Task<void> SimDfs::write(net::NodeId client, FileId file, Bytes offset,
                              Bytes length) {
  if (length == 0) co_return;
  auto pieces = fs_->layout(file, offset, length);
  if (!pieces.is_ok()) {
    throw std::runtime_error("SimDfs::write: " + pieces.status().to_string());
  }
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(pieces->size());
  for (const StripePiece& p : *pieces) {
    tasks.push_back(write_piece(client, file, p));
  }
  co_await sim::when_all(*engine_, std::move(tasks));
}

}  // namespace vmstorm::dfs
