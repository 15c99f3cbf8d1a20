// GrammarArtifact — a validated, immutable .fpsmb buffer (mmap'd file or
// owned bytes) plus the zero-copy FlatGrammarView read out of it.
//
// .fpsmb is the only format a grammar is stored in, and this class is its
// only reader: every grammar file the CLI, the generation log and the
// registry touch goes through open() or fromBytes(), and a file that is
// not an artifact fails here with ArtifactErrorCode::BadMagic.
//
// Opening an artifact performs the full defensive validation pass
// (format.h): header fields, section table geometry, per-section xxhash64
// checksums, and structural bounds on every array (edge targets, string
// offsets, count sums). After open() succeeds, every pointer inside the
// FlatGrammarView is known in-bounds, so the scoring hot path runs with no
// per-access checks. Any defect throws ArtifactError — the loader never
// crashes or reads out of bounds on malformed input (enforced under
// asan/ubsan by the corruption battery in tests/artifact_test.cpp).
//
// GrammarArtifact instances are shared immutably (shared_ptr<const ...>),
// mirroring GrammarSnapshot's ownership model: N serving threads — or,
// with mmap, N worker *processes* — can score against one mapped grammar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artifact/flat_grammar.h"
#include "artifact/format.h"
#include "artifact/mapped_file.h"

namespace fpsm {

class FuzzyPsm;
class GrammarCounts;
class Trie;
struct FuzzyConfig;

/// One entry of the validated section table (inspection/tooling).
struct ArtifactSectionInfo {
  ArtifactSection id;
  std::uint64_t offset;
  std::uint64_t bytes;
  std::uint64_t checksum;
};

class GrammarArtifact {
 public:
  /// Memory-maps and validates an artifact file. Throws ArtifactError.
  static std::shared_ptr<const GrammarArtifact> open(const std::string& path);

  /// Validates an in-memory artifact, taking ownership of the bytes.
  /// Throws ArtifactError. (Tests and the fuzz target feed this directly.)
  static std::shared_ptr<const GrammarArtifact> fromBytes(
      std::vector<std::byte> bytes);

  /// The zero-copy scoring surface. Valid for the artifact's lifetime.
  const FlatGrammarView& grammar() const { return view_; }

  const std::vector<ArtifactSectionInfo>& sections() const {
    return sections_;
  }
  /// The validated file bytes (sizeBytes() of them); sections() locates
  /// each payload in them. Valid for the artifact's lifetime.
  const std::byte* data() const { return data_; }
  std::uint64_t sizeBytes() const { return size_; }
  std::uint32_t formatVersion() const { return version_; }
  bool memoryMapped() const { return map_.valid(); }

 private:
  GrammarArtifact() = default;

  /// Full validation pass; fills view_ and sections_.
  void init(const std::byte* data, std::size_t size);

  MappedFile map_;
  std::vector<std::byte> owned_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint32_t version_ = 0;
  FlatGrammarView view_;
  std::vector<ArtifactSectionInfo> sections_;
};

/// Builds the .fpsmb bytes of a grammar from its constituent parts:
/// config, base dictionary (word list + tries), and a GrammarCounts bundle.
/// compileArtifact passes a FuzzyPsm's state, and `fuzzypsm train` passes
/// the trainer's counts directly. Deterministic: the artifact is a pure
/// function of the arguments (entries are emitted in canonical
/// lexicographic order), so counts assembled from any shard partitioning
/// compile byte-identically.
std::vector<std::byte> writeArtifact(const FuzzyConfig& config,
                                     const std::vector<std::string>& baseWords,
                                     const Trie& trie, const Trie& reversedTrie,
                                     const GrammarCounts& counts);

/// Builds the next generation of `base`: its Config fields and its
/// BaseWords, BaseTrie and ReverseTrie payloads byte for byte, and every
/// count of `base` plus `delta` (OnlineUpdater's compaction). Each table is
/// the sorted merge of the base table with the delta's, so nothing is
/// rebuilt or re-sorted but the delta. `delta` must have been counted
/// against `base`'s dictionary and config. The bytes equal the five-argument
/// writer's over the merged counts; both share one count path, which treats
/// that writer's counts as a delta over an empty grammar. Throws
/// InvalidArgument when a sum overflows 64 bits.
std::vector<std::byte> writeArtifact(const GrammarArtifact& base,
                                     const GrammarCounts& delta);

/// Compiles a trained grammar into .fpsmb bytes. Deterministic: the same
/// grammar (same insertion/training sequence) produces identical bytes.
std::vector<std::byte> compileArtifact(const FuzzyPsm& psm);

}  // namespace fpsm
