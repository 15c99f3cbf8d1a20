#include "trie/flat_trie.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"

namespace fpsm {

std::optional<FlatTrieView::NodeId> FlatTrieView::child(NodeId node,
                                                        char c) const {
  FPSM_DCHECK(node < nodeCount_);
  const std::uint32_t begin = edgeBegin_[node];
  const std::uint32_t n = edgeMeta_[node] & kEdgeCountMask;
  const char* lo = edgeLabels_ + begin;
  const char* hi = lo + n;
  const char* it = std::lower_bound(lo, hi, c);
  if (it != hi && *it == c) {
    return edgeTargets_[begin + static_cast<std::uint32_t>(it - lo)];
  }
  return std::nullopt;
}

bool FlatTrieView::contains(std::string_view word) const {
  if (word.empty() || nodeCount_ == 0) return false;
  NodeId node = kRoot;
  for (char c : word) {
    const auto next = child(node, c);
    if (!next) return false;
    node = *next;
  }
  return isTerminal(node);
}

std::size_t FlatTrieView::longestPrefix(std::string_view s,
                                        std::size_t from) const {
  if (nodeCount_ == 0) return 0;
  NodeId node = kRoot;
  std::size_t best = 0;
  for (std::size_t i = from; i < s.size(); ++i) {
    const auto next = child(node, s[i]);
    if (!next) break;
    node = *next;
    if (isTerminal(node)) best = i - from + 1;
  }
  return best;
}

std::string FlatTrieView::validate() const {
  if (nodeCount_ == 0) {
    return edgeCount_ == 0 && wordCount_ == 0
               ? std::string()
               : "empty trie with edges or words";
  }
  // Trie::insert appends each child after its parent and FlatTrie::fromTrie
  // keeps node ids, so every edge points forward. With exactly one parent
  // per non-root node, that makes the arrays a tree every node of which
  // the root reaches: no cycle, no shared child, no detached piece.
  std::vector<std::uint8_t> hasParent(nodeCount_, 0);
  std::uint32_t parented = 0;
  std::uint64_t terminals = 0;
  for (std::uint32_t node = 0; node < nodeCount_; ++node) {
    const std::uint32_t begin = edgeBegin_[node];
    const std::uint32_t n = edgeMeta_[node] & kEdgeCountMask;
    if ((edgeMeta_[node] & kTerminalBit) != 0) ++terminals;
    if (begin > edgeCount_ || n > edgeCount_ - begin) {
      return "edge slice of node " + std::to_string(node) + " out of range";
    }
    for (std::uint32_t idx = begin; idx < begin + n; ++idx) {
      const std::uint32_t target = edgeTargets_[idx];
      if (target >= nodeCount_) {
        return "edge target " + std::to_string(target) +
               " out of range (nodes: " + std::to_string(nodeCount_) + ")";
      }
      if (target <= node) {
        return "edge target " + std::to_string(target) + " of node " +
               std::to_string(node) +
               " does not follow its source node (cycle or detached "
               "subtree)";
      }
      if (hasParent[target] != 0) {
        return "node " + std::to_string(target) + " has two parents";
      }
      hasParent[target] = 1;
      ++parented;
      if (idx > begin && edgeLabels_[idx - 1] >= edgeLabels_[idx]) {
        return "edge labels of node " + std::to_string(node) +
               " not strictly ascending";
      }
    }
  }
  if (parented != nodeCount_ - 1) {
    return std::to_string(nodeCount_ - 1 - parented) +
           " non-root node(s) have no parent";
  }
  if (terminals != wordCount_) {
    return "terminal count " + std::to_string(terminals) +
           " != stored word count " + std::to_string(wordCount_);
  }
  return std::string();
}

FlatTrie FlatTrie::fromTrie(const Trie& t) {
  FlatTrie out;
  const std::size_t nodes = t.nodeCount();
  const std::size_t edges = t.edgeCount();
  // The flat encoding indexes nodes and edges with uint32; a trie that
  // outgrew that could only be flattened by silently truncating ids.
  FPSM_CHECK(nodes <= std::numeric_limits<std::uint32_t>::max());
  FPSM_CHECK(edges <= FlatTrieView::kEdgeCountMask);
  out.edgeBegin_.resize(nodes);
  out.edgeMeta_.resize(nodes);
  out.edgeTargets_.reserve(edges);
  out.edgeLabels_.reserve(edges);
  out.wordCount_ = t.size();
  for (std::size_t node = 0; node < nodes; ++node) {
    const auto id = static_cast<Trie::NodeId>(node);
    out.edgeBegin_[node] = static_cast<std::uint32_t>(out.edgeTargets_.size());
    std::uint32_t n = 0;
    t.forEachEdge(id, [&](char label, Trie::NodeId target) {
      out.edgeLabels_.push_back(label);
      out.edgeTargets_.push_back(target);
      ++n;
    });
    out.edgeMeta_[node] =
        n | (t.isTerminal(id) ? FlatTrieView::kTerminalBit : 0u);
  }
  return out;
}

}  // namespace fpsm
