#include "bcast/broadcast.hpp"

#include <algorithm>
#include <memory>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "sim/resource.hpp"

namespace vmstorm::bcast {

namespace {

struct Ctx {
  sim::Engine* engine;
  net::Network* network;
  BroadcastConfig cfg;
  // nodes[0] is the source; nodes[1..] are the targets in input order.
  std::vector<net::NodeId> nodes;
  std::vector<storage::Disk*> disks;  // disks[0] = source disk
  // Per-node sender pacer: models the CPU-bound relay channel (ssh),
  // shared across all of a node's outgoing streams.
  std::vector<std::unique_ptr<sim::FifoServer>> pacers;
  Bytes total = 0;
  BroadcastResult* result = nullptr;

  BlockSplit chunks() const { return split_blocks({0, total}, cfg.chunk_size); }
  static std::uint64_t chunk_key(std::uint64_t i) {
    return mix64(0xbcaa57ull ^ i);
  }
  void record(std::size_t node_idx) {
    // node_idx >= 1 (targets only).
    result->per_target_seconds[node_idx - 1] = engine->now_seconds();
    result->completion_seconds =
        std::max(result->completion_seconds, engine->now_seconds());
  }
};

/// One full-file hop: holder -> target, paced at the hop rate, with wire
/// accounting/occupancy and the target's disk write-back in flight.
sim::Task<void> sf_send(Ctx& ctx, std::size_t holder, std::size_t target) {
  std::vector<sim::JoinHandle> inflight;
  for (const BlockPiece& p : ctx.chunks()) {
    const Bytes sz = p.range.size();
    if (holder == 0) {
      // The source streams from the NFS server's disk (page-cached after
      // the first pass).
      co_await ctx.disks[0]->read(Ctx::chunk_key(p.index), sz);
    }
    co_await ctx.pacers[holder]->serve(sz);
    // Wire transfer + receiver disk write proceed concurrently with the
    // pacing of the next chunk (the pacer is the bottleneck).
    auto wire = [](Ctx& cx, std::size_t h, std::size_t t, std::uint64_t ci,
                   Bytes n) -> sim::Task<void> {
      co_await cx.network->transfer(cx.nodes[h], cx.nodes[t], n);
      co_await cx.disks[t]->write_async(n, Ctx::chunk_key(ci));
    }(ctx, holder, target, p.index, sz);
    inflight.push_back(ctx.engine->spawn(std::move(wire)));
  }
  for (auto& h : inflight) co_await h.join();
  ctx.record(target);
}

/// Store-and-forward binomial broadcast: in each round, every node holding
/// the complete file feeds one node that lacks it — ceil(log2(N+1)) rounds.
sim::Task<void> run_store_and_forward(Ctx& ctx) {
  std::vector<std::size_t> holders{0};
  std::size_t next = 1;
  while (next < ctx.nodes.size()) {
    const std::size_t n_new = std::min(holders.size(), ctx.nodes.size() - next);
    std::vector<sim::Task<void>> sends;
    for (std::size_t i = 0; i < n_new; ++i) {
      sends.push_back(sf_send(ctx, holders[i], next + i));
    }
    co_await sim::when_all(*ctx.engine, std::move(sends));
    for (std::size_t i = 0; i < n_new; ++i) holders.push_back(next + i);
    next += n_new;
  }
}

/// Pipelined k-ary tree: each node forwards chunk c to its children as soon
/// as it holds chunk c.
sim::Task<void> pipelined_node(Ctx& ctx, std::size_t idx,
                               std::vector<sim::Channel<int>*> chans) {
  for (const BlockPiece& p : ctx.chunks()) {
    const Bytes sz = p.range.size();
    if (idx == 0) {
      co_await ctx.disks[0]->read(Ctx::chunk_key(p.index), sz);
    } else {
      co_await chans[idx]->pop();
      co_await ctx.disks[idx]->write_async(sz, Ctx::chunk_key(p.index));
      if (p.range.hi == ctx.total) ctx.record(idx);
    }
    for (std::size_t k = 1; k <= ctx.cfg.arity; ++k) {
      const std::size_t child = idx * ctx.cfg.arity + k;
      if (child >= ctx.nodes.size()) break;
      co_await ctx.pacers[idx]->serve(sz);
      co_await ctx.network->transfer(ctx.nodes[idx], ctx.nodes[child], sz);
      chans[child]->push(static_cast<int>(p.index));
    }
  }
}

sim::Task<void> run_pipelined(Ctx& ctx) {
  std::vector<std::unique_ptr<sim::Channel<int>>> chan_store;
  std::vector<sim::Channel<int>*> chans;
  for (std::size_t i = 0; i < ctx.nodes.size(); ++i) {
    chan_store.push_back(std::make_unique<sim::Channel<int>>(*ctx.engine));
    chans.push_back(chan_store.back().get());
  }
  std::vector<sim::Task<void>> procs;
  for (std::size_t i = 0; i < ctx.nodes.size(); ++i) {
    procs.push_back(pipelined_node(ctx, i, chans));
  }
  co_await sim::when_all(*ctx.engine, std::move(procs));
}

}  // namespace

sim::Task<void> broadcast(sim::Engine& engine, net::Network& network,
                          net::NodeId source, storage::Disk& source_disk,
                          std::vector<net::NodeId> targets,
                          std::vector<storage::Disk*> target_disks,
                          Bytes total_bytes, BroadcastConfig cfg,
                          BroadcastResult* result) {
  Ctx ctx;
  ctx.engine = &engine;
  ctx.network = &network;
  ctx.cfg = cfg;
  ctx.nodes.push_back(source);
  ctx.disks.push_back(&source_disk);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ctx.nodes.push_back(targets[i]);
    ctx.disks.push_back(target_disks[i]);
  }
  for (std::size_t i = 0; i < ctx.nodes.size(); ++i) {
    ctx.pacers.push_back(
        std::make_unique<sim::FifoServer>(engine, cfg.hop_rate));
  }
  ctx.total = total_bytes;
  result->per_target_seconds.assign(targets.size(), 0.0);
  result->completion_seconds = 0.0;
  ctx.result = result;
  if (targets.empty()) co_return;
  if (cfg.discipline == Discipline::kStoreAndForward) {
    co_await run_store_and_forward(ctx);
  } else {
    co_await run_pipelined(ctx);
  }
}

}  // namespace vmstorm::bcast
