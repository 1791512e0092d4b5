#include "blob/segment_tree.hpp"

#include <algorithm>
#include <cassert>

namespace vmstorm::blob {

NodeRef SegmentTreeArena::alloc(Node n) {
  nodes_.push_back(n);
  return nodes_.size() - 1;
}

NodeRef SegmentTreeArena::build_empty(std::uint64_t chunk_count) {
  assert(chunk_count > 0);
  return build_range(0, chunk_count);
}

NodeRef SegmentTreeArena::build_range(std::uint64_t lo, std::uint64_t hi) {
  Node n;
  n.lo = lo;
  n.hi = hi;
  if (hi - lo == 1) {
    n.chunk = ChunkLocation{lo, 0, kHoleChunk};
    return alloc(n);
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  n.left = build_range(lo, mid);
  n.right = build_range(mid, hi);
  return alloc(n);
}

NodeRef SegmentTreeArena::commit(
    NodeRef base, const std::map<std::uint64_t, ChunkLocation>& updates) {
  if (updates.empty()) return base;
  assert(base != kNoNode);
  assert(updates.begin()->first >= nodes_[base].lo);
  assert(std::prev(updates.end())->first < nodes_[base].hi);
  std::uint64_t visited = 0;
  const NodeRef root =
      commit_range(base, updates.begin(), updates.end(), &visited);
  nodes_visited_.fetch_add(visited, std::memory_order_relaxed);
  return root;
}

NodeRef SegmentTreeArena::commit_range(
    NodeRef base, std::map<std::uint64_t, ChunkLocation>::const_iterator begin,
    std::map<std::uint64_t, ChunkLocation>::const_iterator end,
    std::uint64_t* visited) {
  if (begin == end) return base;  // no updates below: share the subtree
  ++*visited;
  // Copy-on-write: the base node is immutable; we allocate a modified copy.
  Node n = nodes_[base];
  if (n.is_leaf()) {
    assert(std::next(begin) == end && begin->first == n.lo);
    n.chunk = begin->second;
    n.chunk.chunk_index = n.lo;
    return alloc(n);
  }
  const std::uint64_t mid = nodes_[n.left].hi;
  // Partition [begin, end) at mid. `updates` is ordered by chunk index.
  auto split = begin;
  while (split != end && split->first < mid) ++split;
  n.left = commit_range(n.left, begin, split, visited);
  n.right = commit_range(n.right, split, end, visited);
  return alloc(n);
}

NodeRef SegmentTreeArena::clone(NodeRef base) {
  assert(base != kNoNode);
  // A shallow copy of the root: shares both children (all content and all
  // metadata below the root), but commits against the clone will path-copy
  // from this new root, never disturbing the original blob's history.
  return alloc(nodes_[base]);
}

void SegmentTreeArena::locate(NodeRef root, std::uint64_t lo_chunk,
                              std::uint64_t hi_chunk,
                              std::vector<ChunkLocation>* out) const {
  std::uint64_t visited = 0;
  locate_range(root, lo_chunk, hi_chunk, out, &visited);
  nodes_visited_.fetch_add(visited, std::memory_order_relaxed);
}

void SegmentTreeArena::locate_range(NodeRef root, std::uint64_t lo_chunk,
                                    std::uint64_t hi_chunk,
                                    std::vector<ChunkLocation>* out,
                                    std::uint64_t* visited) const {
  if (root == kNoNode || lo_chunk >= hi_chunk) return;
  const Node& n = nodes_[root];
  if (hi_chunk <= n.lo || lo_chunk >= n.hi) return;
  ++*visited;
  if (n.is_leaf()) {
    out->push_back(n.chunk);
    return;
  }
  locate_range(n.left, lo_chunk, hi_chunk, out, visited);
  locate_range(n.right, lo_chunk, hi_chunk, out, visited);
}

ChunkLocation SegmentTreeArena::locate_one(NodeRef root,
                                           std::uint64_t chunk_index) const {
  NodeRef cur = root;
  std::uint64_t visited = 0;
  while (true) {
    ++visited;
    const Node& n = nodes_[cur];
    assert(chunk_index >= n.lo && chunk_index < n.hi);
    if (n.is_leaf()) {
      nodes_visited_.fetch_add(visited, std::memory_order_relaxed);
      return n.chunk;
    }
    cur = chunk_index < nodes_[n.left].hi ? n.left : n.right;
  }
}

std::uint64_t SegmentTreeArena::depth(NodeRef root) const {
  const Node& n = nodes_[root];
  if (n.is_leaf()) return 1;
  return 1 + std::max(depth(n.left), depth(n.right));
}

}  // namespace vmstorm::blob
