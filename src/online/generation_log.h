// GenerationLog — an append-only on-disk log of .fpsmb grammar generations
// (DESIGN.md §12).
//
// The online update loop (online_updater.h) periodically compacts accepted
// passwords into a full grammar artifact. Each compaction emits one file
//
//   <dir>/gen-000001.fpsmb, gen-000002.fpsmb, ...
//
// and commits it by appending one checksummed line to <dir>/MANIFEST:
//
//   # fpsm generation log v1
//   gen <seq> <file> <bytes> <xxh64(file)> <xxh64(line prefix)>
//
// The manifest is the commit authority: a generation exists if and only if
// its manifest line parses and both checksums verify. Appending is a
// three-step protocol — write gen-NNNNNN.fpsmb.tmp, rename into place,
// append the manifest line — so a crash at any point leaves either a
// committed generation or recoverable garbage, never a half-committed one:
//
//   * crash mid-file-write  -> stray .tmp, removed at the next open;
//   * crash before the line -> orphan gen file, never served, its sequence
//                              number retired (nextSequence scans both the
//                              manifest and the directory);
//   * crash mid-line-write  -> torn tail line, dropped by recovery;
//   * torn file under a     -> file size/checksum mismatch, the entry is
//     committed line           skipped and quarantined.
//
// Recovery (the constructor) is fail-closed with a precise blast radius:
// damage confined to the *tail* — the only place a crash can put it — is
// skipped and reported in a typed RecoveryReport, so the log keeps serving
// its last checksummed-good generation. Damage anywhere else (a corrupt
// line followed by valid ones, sequence numbers out of order) means the
// append-only contract was broken by something other than a crash, and
// open throws GenerationLogError rather than guess.
//
// Concurrency contract: GenerationLog is NOT internally synchronized — it
// is a single-writer type. Its one production instance lives inside
// OnlineUpdater as `log_ FPSM_GUARDED_BY(compactionMutex_)`, so the `tsa`
// build (DESIGN.md §13) proves every append/read happens under that lock.
// Standalone users (tools, tests) must provide their own exclusion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace fpsm {

/// One committed, checksum-verified generation.
struct GenerationEntry {
  std::uint64_t sequence = 0;  ///< 1-based, strictly increasing
  std::string file;            ///< file name inside the log directory
  std::uint64_t bytes = 0;     ///< artifact size
  std::uint64_t checksum = 0;  ///< xxhash64 of the artifact bytes
};

/// Why recovery skipped a manifest line or a committed entry.
enum class RecoverySkipReason {
  TornManifestLine,    ///< tail line unparsable or line checksum mismatch
  MissingFile,         ///< committed line, artifact file absent
  SizeMismatch,        ///< artifact file truncated or grown
  ChecksumMismatch,    ///< artifact bytes differ from the committed xxh64
  UnreadableArtifact,  ///< bytes verify but GrammarArtifact::open rejects
  LintRejected,        ///< artifact loads but fails the semantic lint gate
};

const char* recoverySkipReasonName(RecoverySkipReason reason);

struct RecoverySkip {
  RecoverySkipReason reason;
  std::uint64_t sequence;  ///< 0 when unknown (torn line)
  std::string detail;
};

/// What recovery found while opening a log. clean() on the happy path.
struct RecoveryReport {
  std::size_t manifestLines = 0;  ///< non-comment lines scanned
  std::vector<RecoverySkip> skipped;

  bool clean() const { return skipped.empty(); }
  void add(RecoverySkipReason reason, std::uint64_t sequence,
           std::string detail);
  /// Human-readable rendering, one skip per line.
  std::string render() const;
};

enum class GenerationLogErrorCode {
  BadDirectory,     ///< path exists but is not a usable directory
  ManifestCorrupt,  ///< damage outside the recoverable tail
  SequenceOrder,    ///< manifest sequences not strictly increasing
  AppendFailed,     ///< filesystem failure while committing a generation
  NoSuchSequence,   ///< pathFor()/entry() on an uncommitted sequence
};

const char* generationLogErrorCodeName(GenerationLogErrorCode code);

class GenerationLogError : public Error {
 public:
  GenerationLogError(GenerationLogErrorCode code, const std::string& what)
      : Error(std::string("[") + generationLogErrorCodeName(code) + "] " +
              what),
        code_(code) {}
  GenerationLogErrorCode code() const { return code_; }

 private:
  GenerationLogErrorCode code_;
};

class GenerationLog {
 public:
  /// Opens an existing log directory or creates a fresh one (including the
  /// manifest header). Runs full recovery: every committed entry's file is
  /// re-checksummed where it lies, through a read-only mapping (no copy),
  /// tail damage is skipped into `report` (optional), and non-tail damage
  /// throws GenerationLogError. A file that cannot be mapped is reported
  /// as MissingFile, like one that cannot be stat'ed.
  explicit GenerationLog(const std::string& directory,
                         RecoveryReport* report = nullptr);

  GenerationLog(GenerationLog&&) = default;
  GenerationLog& operator=(GenerationLog&&) = default;

  /// Durably appends one artifact as the next generation and returns its
  /// sequence number. Throws GenerationLogError(AppendFailed) on I/O
  /// failure; on throw the manifest is unchanged (a stray file may remain,
  /// harmless by the recovery rules above).
  std::uint64_t append(const void* data, std::size_t bytes);

  /// Committed, checksum-verified generations in ascending sequence order.
  /// Entries quarantined by recovery are not listed.
  const std::vector<GenerationEntry>& entries() const { return entries_; }

  /// Last good generation, or nullptr for an empty log.
  const GenerationEntry* latest() const {
    return entries_.empty() ? nullptr : &entries_.back();
  }

  /// Entry for `sequence`; throws GenerationLogError(NoSuchSequence) if it
  /// was never committed or was quarantined.
  const GenerationEntry& entry(std::uint64_t sequence) const;

  /// Absolute path of a committed generation's artifact file.
  std::string pathFor(std::uint64_t sequence) const;

  /// Sequence the next append will use. Never reuses a number that any
  /// manifest line or gen-*.fpsmb file has claimed, even a quarantined one.
  std::uint64_t nextSequence() const { return nextSequence_; }

  const std::string& directory() const { return directory_; }

  /// What one gc() pass did.
  struct GcResult {
    std::uint64_t kept = 0;          ///< committed entries still in the manifest
    std::uint64_t retired = 0;       ///< committed entries dropped from it
    std::uint64_t removedFiles = 0;  ///< gen-*.fpsmb files deleted from disk
  };

  /// Retires all but the newest `keep` committed generations — the
  /// `fuzzypsm log gc --keep N` backend. Kept entries keep their original
  /// sequence numbers (recovery requires strictly-increasing, not
  /// 1-based), so nextSequence() is unchanged and the retention window
  /// just slides.
  ///
  /// Crash-safe by the same authority rule as append: the manifest is
  /// rewritten via MANIFEST.tmp + rename BEFORE any file is deleted, so a
  /// crash leaves either the old manifest with every file intact (the
  /// .tmp is swept at the next open) or the new manifest with some
  /// already-retired files still on disk — orphans by the recovery rules,
  /// deleted by the next gc pass. Files are only ever deleted below the
  /// oldest KEPT sequence (this also reaps old orphans and quarantined
  /// generations), so a committed entry can never lose its artifact.
  ///
  /// Throws InvalidArgument when keep == 0 (the newest generation is the
  /// one being served; a log that discards it cannot resume) and
  /// GenerationLogError(AppendFailed) on filesystem failure. No-op on an
  /// empty log.
  GcResult gc(std::size_t keep);

  /// Re-validates every committed entry's file from scratch (size +
  /// xxhash64) — the `fuzzypsm log inspect --verify` backend. The log
  /// itself is not modified.
  RecoveryReport verify() const;

  /// Canonical file name for a sequence number ("gen-000042.fpsmb").
  static std::string fileNameFor(std::uint64_t sequence);

 private:
  void recover(RecoveryReport& report);

  std::string directory_;
  std::string manifestPath_;
  std::vector<GenerationEntry> entries_;
  std::uint64_t nextSequence_ = 1;
};

}  // namespace fpsm
