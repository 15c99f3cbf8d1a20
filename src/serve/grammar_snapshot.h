// Immutable, generation-stamped view of a compiled grammar artifact.
//
// A snapshot is a zero-copy FlatGrammarView over a validated .fpsmb buffer
// (typically an mmap'd generation file) plus the generation number it was
// published under. No deep copy is made; the snapshot pins the
// GrammarArtifact alive, and every score is a read of the mapped bytes.
// Building a snapshot audits nothing: the artifact's bytes were validated
// when it was opened, and its semantics are gated once, by OnlineUpdater,
// before it is published (DESIGN.md §9).
//
// The snapshot is immutable, so one snapshot can be scored by any number
// of threads with no locking at all. This is the ownership model Chromium
// uses for zxcvbn's frequency lists: build read-optimized data once, hand
// `const` access to the hot path.
//
// Snapshots are published to readers through an RcuPtr (util/rcu_ptr.h)
// inside TenantMeter; the generation number orders publishes and keys the
// score cache so a cached score can never outlive the grammar it was
// computed from.
//
// Concurrency contract: immutability IS the synchronization. Every member
// is set in the constructor and never written again, so no capability
// annotations apply (there is no mutex to name) and the `tsa` build
// (DESIGN.md §13) has nothing to prove here. The invariant the hot path
// relies on instead — scoring acquires no locks at all — is enforced by
// fpsm_lint's hot-path-lock rule over this file and the scoring kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "artifact/artifact.h"

namespace fpsm {

class GrammarSnapshot {
 public:
  /// Wraps a validated artifact without copying it: scoring runs directly
  /// on the (possibly memory-mapped) flat grammar. The artifact is kept
  /// alive for the snapshot's lifetime. Throws InvalidArgument on null.
  static std::shared_ptr<const GrammarSnapshot> fromArtifact(
      std::shared_ptr<const GrammarArtifact> artifact,
      std::uint64_t generation);

  /// Monotonic publish counter: 0 for the initial snapshot, +1 per publish.
  std::uint64_t generation() const { return generation_; }

  // Synchronization-free scoring surface (safe from any number of threads).
  double log2Prob(std::string_view pw) const { return view().log2Prob(pw); }
  double strengthBits(std::string_view pw) const {
    return view().strengthBits(pw);
  }
  /// Batch scoring against this one snapshot: out[i] is bit-identical to
  /// strengthBits(pws[i]) (shared parser + SIMD-kernel ParseScratch per
  /// call; see FlatGrammarView::log2ProbBatch).
  void strengthBitsBatch(const std::string_view* pws, std::size_t n,
                         double* out) const {
    view().strengthBitsBatch(pws, n, out);
  }
  FuzzyParse parse(std::string_view pw) const { return view().parse(pw); }
  bool trained() const { return view().trained(); }

  /// Bytes the snapshot keeps resident for serving: the backing artifact's
  /// size. The registry's resident-bytes budget sums this.
  std::uint64_t residentBytes() const { return artifact_->sizeBytes(); }

 private:
  GrammarSnapshot(std::shared_ptr<const GrammarArtifact> artifact,
                  std::uint64_t generation);

  const FlatGrammarView& view() const { return artifact_->grammar(); }

  std::shared_ptr<const GrammarArtifact> artifact_;
  std::uint64_t generation_;
};

}  // namespace fpsm
