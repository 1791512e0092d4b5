// Versioned segment trees with shadowing and cloning (paper §4.2, Fig. 3).
//
// Each snapshot of a blob is identified by a tree root. A node covers a
// chunk range [lo, hi); leaves cover single chunks and point at stored
// chunk data. COMMIT path-copies only the nodes on root-to-changed-leaf
// paths, sharing every untouched subtree with earlier snapshots — that is
// *shadowing*: each snapshot looks like a standalone object while storing
// only differences. CLONE adds a fresh root whose children are the source
// root's children — a new blob sharing all content, able to diverge.
//
// Nodes are immutable once created; the arena only grows (garbage
// collection of unreachable snapshots is out of scope, as in the paper).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "common/status.hpp"
#include "blob/types.hpp"

namespace vmstorm::blob {

/// Index of a tree node in the arena.
using NodeRef = std::uint64_t;
inline constexpr NodeRef kNoNode = 0xffffffffffffffffull;

class SegmentTreeArena {
 public:
  struct Node {
    std::uint64_t lo = 0;  // first chunk covered
    std::uint64_t hi = 0;  // one past last chunk covered
    NodeRef left = kNoNode;
    NodeRef right = kNoNode;
    ChunkLocation chunk;   // valid for leaves only (hi == lo + 1)

    bool is_leaf() const { return left == kNoNode && right == kNoNode; }
  };

  /// Builds the initial tree for a blob of `chunk_count` chunks, all holes.
  /// Returns the root.
  NodeRef build_empty(std::uint64_t chunk_count);

  /// Creates the snapshot obtained from `base` by replacing the leaves in
  /// `updates` (chunk_index -> new location). Only root-to-leaf paths of
  /// updated chunks are copied; all other subtrees are shared.
  NodeRef commit(NodeRef base, const std::map<std::uint64_t, ChunkLocation>& updates);

  /// Clones `base`: a new root with the same children (Fig. 3(b)). The new
  /// root is a distinct node so the clone's subsequent commits never touch
  /// the original's root.
  NodeRef clone(NodeRef base);

  /// Appends the locations of chunks [lo_chunk, hi_chunk) to `out`, in
  /// order. Hole leaves are reported with key == kHoleChunk.
  void locate(NodeRef root, std::uint64_t lo_chunk, std::uint64_t hi_chunk,
              std::vector<ChunkLocation>* out) const;

  /// Location of one chunk.
  ChunkLocation locate_one(NodeRef root, std::uint64_t chunk_index) const;

  const Node& node(NodeRef ref) const { return nodes_[ref]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Replaces the arena's nodes with persisted ones.
  void load_nodes(std::vector<Node> nodes) { nodes_ = std::move(nodes); }

  /// Number of chunks covered by the tree rooted at `root`.
  std::uint64_t chunk_count(NodeRef root) const {
    return nodes_[root].hi - nodes_[root].lo;
  }

  /// Total nodes ever allocated — the metadata-size measure used to verify
  /// that snapshots share metadata (commit allocates O(k log n), not O(n)).
  std::size_t node_count() const { return nodes_.size(); }

  /// Nodes touched by locate/locate_one/commit traversals since
  /// construction — the metadata-access cost the obs layer reports.
  std::uint64_t nodes_visited() const {
    return nodes_visited_.load(std::memory_order_relaxed);
  }

  /// Depth of the tree rooted at `root` (1 for a single leaf).
  std::uint64_t depth(NodeRef root) const;

 private:
  NodeRef build_range(std::uint64_t lo, std::uint64_t hi);
  // The recursions count the nodes they visit into *visited; their public
  // callers add the total to nodes_visited_ once.
  NodeRef commit_range(NodeRef base,
                       std::map<std::uint64_t, ChunkLocation>::const_iterator begin,
                       std::map<std::uint64_t, ChunkLocation>::const_iterator end,
                       std::uint64_t* visited);
  void locate_range(NodeRef root, std::uint64_t lo_chunk,
                    std::uint64_t hi_chunk, std::vector<ChunkLocation>* out,
                    std::uint64_t* visited) const;
  NodeRef alloc(Node n);

  std::vector<Node> nodes_;
  // mutable: locate() is logically const but still counts traversal work.
  // Atomic because readers locate concurrently under BlobStore's shared
  // lock; each public call adds its count once, relaxed.
  mutable std::atomic<std::uint64_t> nodes_visited_{0};
};

}  // namespace vmstorm::blob
