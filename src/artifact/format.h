// On-disk layout of the .fpsmb flat binary grammar artifact, version 1.
//
// Design goals (DESIGN.md §8): a trained fuzzy-PCFG grammar that (a) loads
// in microseconds by mapping the file and validating checksums — no
// parsing, no pointer rebuild, no per-node allocation — and (b) fails
// *closed*: any corruption surfaces as a typed ArtifactError, never as a
// crash or silent mis-load. This is the same shape Chromium gave zxcvbn's
// dictionaries (pointer-free sorted blobs, "could theoretically directly
// be mapped from disk"), applied to the full fuzzy grammar.
//
// File layout (all integers little-endian, fixed width):
//
//   header (40 bytes)
//     u32 magic          "FPSM" = 0x4D535046
//     u32 version        1
//     u32 endianTag      0x01020304 (refuses byte-swapped producers)
//     u32 sectionCount   6 in version 1
//     u64 fileBytes      total file size; must equal the buffer size
//     u64 reserved       0
//     u64 headerChecksum xxhash64 of header + section table with this
//                        field zeroed
//   section table (sectionCount × 32 bytes)
//     u32 id; u32 reserved(0); u64 offset; u64 bytes; u64 checksum
//   sections, 8-byte aligned, in id order, zero padding between them
//
// Section payloads (see artifact.cpp for the validated parse):
//   Config      fixed 152 bytes: minBaseWordLen, flag bits, prior, and the
//               cap/rev/leet counters + trainedPasswords
//   BaseWords   u64 count; u64 poolBytes; u32 off[count+1]; char pool[]
//               (insertion order, so compile -> read -> compile rebuilds
//               the same tries and repeats every byte)
//   BaseTrie    u32 nodeCount; u32 edgeCount; u64 wordCount;
//   ReverseTrie u32 edgeBegin[nodeCount]; u32 edgeMeta[nodeCount];
//               u32 edgeTargets[edgeCount]; char edgeLabels[edgeCount]
//               (the FlatTrieView arrays, binary-searchable in place)
//   Structures  one flat count table (layout below)
//   Segments    u32 tableCount; u32 reserved; then per table, 8-aligned:
//               u32 segLen; u32 distinct; u64 total; u64 poolBytes;
//               u64 counts[]; u32 strOff[]; u32 strLen[]; char pool[]
//               — entries sorted lexicographically by form so probability
//               lookups binary-search the mapped bytes directly
//
// Versioning policy: `version` is bumped on ANY layout change; readers
// reject unknown versions outright (grammars are cheap to retrain from
// their corpora — compatibility shims are not worth silent-misread risk).
// `reserved` fields must be zero so they can become meaningful later
// without being ambiguous against old garbage.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace fpsm {

inline constexpr std::uint32_t kArtifactMagic = 0x4D535046u;  // "FPSM"
inline constexpr std::uint32_t kArtifactVersion = 1;
inline constexpr std::uint32_t kArtifactEndianTag = 0x01020304u;
inline constexpr std::size_t kArtifactHeaderBytes = 40;
inline constexpr std::size_t kArtifactSectionEntryBytes = 32;

/// Section ids, in file order. Version 1 requires exactly these six.
enum class ArtifactSection : std::uint32_t {
  Config = 1,
  BaseWords = 2,
  BaseTrie = 3,
  ReverseTrie = 4,
  Structures = 5,
  Segments = 6,
};
inline constexpr std::uint32_t kArtifactSectionCount = 6;

const char* artifactSectionName(ArtifactSection id);

/// Config section flag bits.
inline constexpr std::uint32_t kArtifactFlagMatchCapitalization = 1u << 0;
inline constexpr std::uint32_t kArtifactFlagMatchLeet = 1u << 1;
inline constexpr std::uint32_t kArtifactFlagRetryTrieInsideRuns = 1u << 2;
inline constexpr std::uint32_t kArtifactFlagMatchReverse = 1u << 3;
inline constexpr std::uint32_t kArtifactKnownFlags = 0xFu;

/// Element-count ceiling per array (nodes, edges, table entries, words).
/// Far above any real grammar; its purpose is to keep all size arithmetic
/// in checked 64-bit range regardless of what a corrupt header claims.
inline constexpr std::uint64_t kArtifactMaxCount = 1ull << 30;

/// Where a load rejected the artifact. Every loader failure carries one of
/// these — the corruption test battery asserts on the *type*, so a crash
/// or an unrelated exception can never masquerade as a clean rejection.
enum class ArtifactErrorCode {
  Io,                ///< file missing / unreadable / unmappable
  Truncated,         ///< buffer shorter than the layout requires
  BadMagic,          ///< not an .fpsmb file
  BadVersion,        ///< produced by an incompatible format version
  BadEndianness,     ///< produced on a byte-swapped machine
  BadHeader,         ///< malformed header fields
  BadSectionTable,   ///< wrong ids/order/overlap in the section table
  ChecksumMismatch,  ///< payload bytes do not match the recorded checksum
  BadSection,        ///< section payload inconsistent with its own header
  OutOfRange,        ///< index/offset points outside its array
};

const char* artifactErrorCodeName(ArtifactErrorCode code);

/// Typed loader error: every malformed input path lands here.
class ArtifactError : public IoError {
 public:
  ArtifactError(ArtifactErrorCode code, const std::string& what)
      : IoError(std::string("artifact: [") + artifactErrorCodeName(code) +
                "] " + what),
        code_(code) {}

  ArtifactErrorCode code() const { return code_; }

 private:
  ArtifactErrorCode code_;
};

}  // namespace fpsm
