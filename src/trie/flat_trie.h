// Pointer-free flat encoding of a Trie, traversable in place.
//
// The pointer Trie (trie/trie.h) is ideal for incremental construction but
// costly to ship: every node owns a heap vector, so a cold start must
// rebuild the whole structure edge by edge. The flat encoding stores the
// same automaton in four contiguous arrays:
//
//   edgeBegin[node]   first edge of `node` in the edge arrays
//   edgeMeta[node]    edge count (low 31 bits) | terminal flag (bit 31)
//   edgeTargets[i]    child node id of edge i
//   edgeLabels[i]     label character of edge i (sorted within each node)
//
// Node ids are preserved from the source trie, so node 0 is the root and
// traversal answers are identical by construction. Lookups binary-search
// the label slice of a node, exactly like Trie::child.
//
// FlatTrieView is non-owning: it can point into a FlatTrie's buffers or
// directly into an mmap'd grammar artifact (src/artifact) — the arrays are
// readable zero-copy from disk. FlatTrie owns the buffers and is what the
// artifact writer serializes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trie/trie.h"

namespace fpsm {

class FlatTrieView {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr std::uint32_t kTerminalBit = 0x80000000u;
  static constexpr std::uint32_t kEdgeCountMask = 0x7fffffffu;

  /// Empty view (no nodes). contains()/longestPrefix() match an empty trie.
  FlatTrieView() = default;

  /// Borrows the four arrays; they must outlive the view.
  FlatTrieView(const std::uint32_t* edgeBegin, const std::uint32_t* edgeMeta,
               std::uint32_t nodeCount, const std::uint32_t* edgeTargets,
               const char* edgeLabels, std::uint32_t edgeCount,
               std::uint64_t wordCount)
      : edgeBegin_(edgeBegin),
        edgeMeta_(edgeMeta),
        edgeTargets_(edgeTargets),
        edgeLabels_(edgeLabels),
        nodeCount_(nodeCount),
        edgeCount_(edgeCount),
        wordCount_(wordCount) {}

  /// Child of `node` along character c, if any.
  std::optional<NodeId> child(NodeId node, char c) const;

  /// True if `node` ends a stored word.
  bool isTerminal(NodeId node) const {
    return (edgeMeta_[node] & kTerminalBit) != 0;
  }

  /// True if the exact word is present.
  bool contains(std::string_view word) const;

  /// Length of the longest prefix of s starting at `from` that is a stored
  /// word, or 0 if none.
  std::size_t longestPrefix(std::string_view s, std::size_t from = 0) const;

  /// Number of stored words.
  std::size_t size() const { return static_cast<std::size_t>(wordCount_); }

  std::size_t nodeCount() const { return nodeCount_; }
  std::size_t edgeCount() const { return edgeCount_; }

  bool empty() const { return wordCount_ == 0; }

  /// Structural validation for views over untrusted bytes, and the one
  /// audit a trie gets: every edge slice in bounds, every target a valid
  /// node id that follows its source node, exactly one parent per non-root
  /// node, labels strictly ascending per node, terminal count == wordCount.
  /// Together these prove the arrays are a tree the root reaches in full —
  /// the shape of the pointer trie FlatTrie::fromTrie compiles, node ids
  /// included. Returns an empty string when valid, else a description of
  /// the first defect found. The artifact loader runs it on both tries, so
  /// every view served from an artifact has passed it.
  std::string validate() const;

 private:
  const std::uint32_t* edgeBegin_ = nullptr;
  const std::uint32_t* edgeMeta_ = nullptr;
  const std::uint32_t* edgeTargets_ = nullptr;
  const char* edgeLabels_ = nullptr;
  std::uint32_t nodeCount_ = 0;
  std::uint32_t edgeCount_ = 0;
  std::uint64_t wordCount_ = 0;
};

/// Owning flat trie: the compile target of a pointer Trie, the source the
/// artifact writer serializes, and what the trainer parses a FuzzyPsm's
/// dictionary through.
class FlatTrie {
 public:
  /// Compiles `t` preserving node ids (deterministic: same insertion
  /// sequence -> same bytes).
  static FlatTrie fromTrie(const Trie& t);

  FlatTrieView view() const {
    return FlatTrieView(edgeBegin_.data(), edgeMeta_.data(),
                        static_cast<std::uint32_t>(edgeBegin_.size()),
                        edgeTargets_.data(), edgeLabels_.data(),
                        static_cast<std::uint32_t>(edgeTargets_.size()),
                        wordCount_);
  }

  // Raw buffers for serialization.
  const std::vector<std::uint32_t>& edgeBegin() const { return edgeBegin_; }
  const std::vector<std::uint32_t>& edgeMeta() const { return edgeMeta_; }
  const std::vector<std::uint32_t>& edgeTargets() const {
    return edgeTargets_;
  }
  const std::vector<char>& edgeLabels() const { return edgeLabels_; }
  std::uint64_t wordCount() const { return wordCount_; }

 private:
  std::vector<std::uint32_t> edgeBegin_;
  std::vector<std::uint32_t> edgeMeta_;
  std::vector<std::uint32_t> edgeTargets_;
  std::vector<char> edgeLabels_;
  std::uint64_t wordCount_ = 0;
};

}  // namespace fpsm
