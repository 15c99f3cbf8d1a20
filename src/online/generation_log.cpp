#include "online/generation_log.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "artifact/checksum.h"
#include "artifact/mapped_file.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace fs = std::filesystem;

namespace fpsm {
namespace {

constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kManifestHeader = "# fpsm generation log v1";
constexpr std::string_view kGenPrefix = "gen-";
constexpr std::string_view kGenSuffix = ".fpsmb";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool parseU64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  const auto* first = token.data();
  const auto* last = token.data() + token.size();
  const auto res = std::from_chars(first, last, out, 10);
  return res.ec == std::errc() && res.ptr == last;
}

bool parseHex64(std::string_view token, std::uint64_t& out) {
  if (token.size() != 16) return false;
  const auto res =
      std::from_chars(token.data(), token.data() + token.size(), out, 16);
  return res.ec == std::errc() && res.ptr == token.data() + token.size();
}

/// Splits a manifest line on single spaces. Empty fields (double spaces)
/// count as parse damage, which is what we want for torn writes.
std::vector<std::string_view> splitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return fields;
}

/// Parses one `gen ...` manifest line into an entry, verifying the trailing
/// line checksum (xxh64 over everything before the final " <linehash>").
/// Returns false on any damage — the caller decides tail-skip vs throw.
bool parseEntryLine(std::string_view line, GenerationEntry& entry,
                    std::string& detail) {
  const auto fields = splitFields(line);
  if (fields.size() != 6 || fields[0] != "gen") {
    detail = "malformed line";
    return false;
  }
  std::uint64_t lineHash = 0;
  if (!parseHex64(fields[5], lineHash)) {
    detail = "bad line-checksum field";
    return false;
  }
  // The checksum covers the line up to (excluding) the last space.
  const std::size_t prefixLen = line.size() - fields[5].size() - 1;
  if (xxhash64(line.data(), prefixLen) != lineHash) {
    detail = "line checksum mismatch";
    return false;
  }
  if (!parseU64(fields[1], entry.sequence) || entry.sequence == 0) {
    detail = "bad sequence field";
    return false;
  }
  entry.file = std::string(fields[2]);
  if (entry.file.empty() || entry.file.find('/') != std::string::npos) {
    detail = "bad file field";
    return false;
  }
  if (!parseU64(fields[3], entry.bytes)) {
    detail = "bad bytes field";
    return false;
  }
  if (!parseHex64(fields[4], entry.checksum)) {
    detail = "bad file-checksum field";
    return false;
  }
  return true;
}

std::string formatEntryLine(const GenerationEntry& entry) {
  std::ostringstream os;
  os << "gen " << entry.sequence << ' ' << entry.file << ' ' << entry.bytes
     << ' ' << hex16(entry.checksum);
  const std::string prefix = os.str();
  return prefix + ' ' + hex16(xxhash64(prefix.data(), prefix.size())) + '\n';
}

/// Sequence number encoded in a gen-NNNNNN.fpsmb file name, or 0.
std::uint64_t sequenceFromFileName(std::string_view name) {
  if (name.size() <= kGenPrefix.size() + kGenSuffix.size()) return 0;
  if (name.substr(0, kGenPrefix.size()) != kGenPrefix) return 0;
  if (name.substr(name.size() - kGenSuffix.size()) != kGenSuffix) return 0;
  const auto digits = name.substr(
      kGenPrefix.size(), name.size() - kGenPrefix.size() - kGenSuffix.size());
  std::uint64_t seq = 0;
  return parseU64(digits, seq) ? seq : 0;
}

/// Size + xxhash64 check of one committed entry's file. Returns true when
/// the file matches the manifest; otherwise fills a skip reason + detail.
bool validateEntryFile(const fs::path& path, const GenerationEntry& entry,
                       RecoverySkipReason& reason, std::string& detail) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    reason = RecoverySkipReason::MissingFile;
    detail = "cannot stat " + entry.file + ": " + ec.message();
    return false;
  }
  if (size != entry.bytes) {
    reason = RecoverySkipReason::SizeMismatch;
    detail = entry.file + ": manifest says " + std::to_string(entry.bytes) +
             " bytes, file has " + std::to_string(size);
    return false;
  }
  // Hash the file where it lies: the mapping is the page cache itself, so
  // recovery reads each byte once and copies none of them.
  MappedFile map;
  try {
    map = MappedFile::open(path.string());
  } catch (const Error&) {
    reason = RecoverySkipReason::MissingFile;
    detail = "cannot read " + entry.file;
    return false;
  }
  if (xxhash64(map.data(), map.size()) != entry.checksum) {
    reason = RecoverySkipReason::ChecksumMismatch;
    detail = entry.file + ": file checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

const char* recoverySkipReasonName(RecoverySkipReason reason) {
  switch (reason) {
    case RecoverySkipReason::TornManifestLine: return "torn-manifest-line";
    case RecoverySkipReason::MissingFile: return "missing-file";
    case RecoverySkipReason::SizeMismatch: return "size-mismatch";
    case RecoverySkipReason::ChecksumMismatch: return "checksum-mismatch";
    case RecoverySkipReason::UnreadableArtifact: return "unreadable-artifact";
    case RecoverySkipReason::LintRejected: return "lint-rejected";
  }
  return "unknown";
}

const char* generationLogErrorCodeName(GenerationLogErrorCode code) {
  switch (code) {
    case GenerationLogErrorCode::BadDirectory: return "BadDirectory";
    case GenerationLogErrorCode::ManifestCorrupt: return "ManifestCorrupt";
    case GenerationLogErrorCode::SequenceOrder: return "SequenceOrder";
    case GenerationLogErrorCode::AppendFailed: return "AppendFailed";
    case GenerationLogErrorCode::NoSuchSequence: return "NoSuchSequence";
  }
  return "Unknown";
}

void RecoveryReport::add(RecoverySkipReason reason, std::uint64_t sequence,
                         std::string detail) {
  skipped.push_back(RecoverySkip{reason, sequence, std::move(detail)});
}

std::string RecoveryReport::render() const {
  std::ostringstream os;
  for (const auto& skip : skipped) {
    os << "skip [" << recoverySkipReasonName(skip.reason) << "] seq ";
    if (skip.sequence == 0) {
      os << '?';
    } else {
      os << skip.sequence;
    }
    os << ": " << skip.detail << '\n';
  }
  return os.str();
}

GenerationLog::GenerationLog(const std::string& directory,
                             RecoveryReport* report)
    : directory_(directory) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw GenerationLogError(
        GenerationLogErrorCode::BadDirectory,
        "GenerationLog: cannot use directory " + directory_ +
            (ec ? ": " + ec.message() : ""));
  }
  manifestPath_ = (fs::path(directory_) / kManifestName).string();
  RecoveryReport local;
  recover(report ? *report : local);
}

void GenerationLog::recover(RecoveryReport& report) {
  // Counted as a delta: the caller may hand in a report that already
  // carries skips from an earlier recovery pass.
  const std::size_t skipsBefore = report.skipped.size();
  // Remove stray .tmp files — a crash mid-file-write left them; nothing
  // references them.
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(directory_, ec)) {
    if (dirent.path().extension() == ".tmp") {
      std::error_code rmEc;
      fs::remove(dirent.path(), rmEc);
    }
  }

  if (!fs::exists(manifestPath_)) {
    // Fresh log: write the header so even an empty log is identifiable.
    std::ofstream out(manifestPath_, std::ios::binary);
    out << kManifestHeader << '\n';
    out.flush();
    if (!out) {
      throw GenerationLogError(
          GenerationLogErrorCode::BadDirectory,
          "GenerationLog: cannot create manifest in " + directory_);
    }
  } else {
    std::string manifest;
    {
      std::ifstream in(manifestPath_, std::ios::binary);
      if (!in) {
        throw GenerationLogError(
            GenerationLogErrorCode::BadDirectory,
            "GenerationLog: cannot read manifest in " + directory_);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      manifest = buf.str();
    }
    // A parse failure is only recoverable if it is the LAST line — that is
    // the only place a crashed append can tear. Buffer one failure; if
    // another line follows it, the log is corrupt beyond a crash's reach.
    bool pendingTorn = false;
    std::string pendingDetail;
    std::size_t tornOffset = 0;
    std::uint64_t lastSeq = 0;
    std::size_t pos = 0;
    while (pos < manifest.size()) {
      const std::size_t lineStart = pos;
      std::size_t eol = manifest.find('\n', pos);
      if (eol == std::string::npos) eol = manifest.size();
      std::string_view line(manifest.data() + pos, eol - pos);
      pos = eol + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty() || line[0] == '#') continue;
      if (pendingTorn) {
        throw GenerationLogError(
            GenerationLogErrorCode::ManifestCorrupt,
            "GenerationLog: corrupt manifest line followed by more entries "
            "(" + pendingDetail + ") in " + manifestPath_);
      }
      ++report.manifestLines;
      GenerationEntry entry;
      std::string detail;
      if (!parseEntryLine(line, entry, detail)) {
        pendingTorn = true;
        pendingDetail = detail;
        tornOffset = lineStart;
        continue;
      }
      if (entry.sequence <= lastSeq) {
        throw GenerationLogError(
            GenerationLogErrorCode::SequenceOrder,
            "GenerationLog: sequence " + std::to_string(entry.sequence) +
                " after " + std::to_string(lastSeq) + " in " + manifestPath_);
      }
      lastSeq = entry.sequence;
      nextSequence_ = entry.sequence + 1;

      RecoverySkipReason reason;
      if (!validateEntryFile(fs::path(directory_) / entry.file, entry,
                             reason, detail)) {
        // The entry stays off entries() permanently (its sequence is still
        // retired). Mid-log failures are legitimate here: they are
        // generations an earlier recovery already quarantined.
        report.add(reason, entry.sequence, std::move(detail));
        continue;
      }
      entries_.push_back(std::move(entry));
    }
    if (pendingTorn) {
      // Heal the tail: truncate the torn line away so the next append does
      // not leave a corrupt line in the MIDDLE of the manifest (which the
      // next open would rightly refuse to serve).
      std::error_code truncEc;
      fs::resize_file(manifestPath_, tornOffset, truncEc);
      if (truncEc) {
        throw GenerationLogError(
            GenerationLogErrorCode::ManifestCorrupt,
            "GenerationLog: cannot truncate torn manifest tail in " +
                manifestPath_ + ": " + truncEc.message());
      }
      report.add(RecoverySkipReason::TornManifestLine, 0,
                 std::move(pendingDetail));
    }
  }

  // Orphan gen files (crash between rename and manifest append) retire
  // their sequence numbers so an append can never silently overwrite one.
  for (const auto& dirent : fs::directory_iterator(directory_, ec)) {
    const std::uint64_t seq =
        sequenceFromFileName(dirent.path().filename().string());
    if (seq >= nextSequence_) nextSequence_ = seq + 1;
  }

  obs::count(obs::Counter::GenlogRecoverySkips,
             report.skipped.size() - skipsBefore);
  obs::gaugeSet(obs::Gauge::GenlogGenerations,
                static_cast<std::int64_t>(entries_.size()));
}

std::string GenerationLog::fileNameFor(std::uint64_t sequence) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen-%06llu.fpsmb",
                static_cast<unsigned long long>(sequence));
  return std::string(buf);
}

std::uint64_t GenerationLog::append(const void* data, std::size_t bytes) {
  obs::StageTimer span(obs::Histo::GenlogAppendLatency);
  const std::uint64_t seq = nextSequence_;
  GenerationEntry entry;
  entry.sequence = seq;
  entry.file = fileNameFor(seq);
  entry.bytes = bytes;
  entry.checksum = xxhash64(data, bytes);

  const fs::path finalPath = fs::path(directory_) / entry.file;
  const fs::path tmpPath = finalPath.string() + ".tmp";
  {
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    if (out && bytes > 0) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
    }
    out.flush();
    if (!out) {
      std::error_code rmEc;
      fs::remove(tmpPath, rmEc);
      throw GenerationLogError(
          GenerationLogErrorCode::AppendFailed,
          "GenerationLog: cannot write " + tmpPath.string());
    }
  }
  std::error_code ec;
  fs::rename(tmpPath, finalPath, ec);
  if (ec) {
    std::error_code rmEc;
    fs::remove(tmpPath, rmEc);
    throw GenerationLogError(
        GenerationLogErrorCode::AppendFailed,
        "GenerationLog: cannot rename " + tmpPath.string() + ": " +
            ec.message());
  }
  {
    std::ofstream out(manifestPath_, std::ios::binary | std::ios::app);
    out << formatEntryLine(entry);
    out.flush();
    if (!out) {
      // The gen file is in place but uncommitted — exactly the "crash
      // before the line" state recovery handles: the orphan retires seq.
      throw GenerationLogError(
          GenerationLogErrorCode::AppendFailed,
          "GenerationLog: cannot append manifest line for sequence " +
              std::to_string(seq));
    }
  }
  nextSequence_ = seq + 1;
  entries_.push_back(std::move(entry));
  obs::count(obs::Counter::GenlogAppends);
  obs::gaugeSet(obs::Gauge::GenlogGenerations,
                static_cast<std::int64_t>(entries_.size()));
  return seq;
}

const GenerationEntry& GenerationLog::entry(std::uint64_t sequence) const {
  for (const auto& e : entries_) {
    if (e.sequence == sequence) return e;
  }
  throw GenerationLogError(
      GenerationLogErrorCode::NoSuchSequence,
      "GenerationLog: no committed generation " + std::to_string(sequence));
}

std::string GenerationLog::pathFor(std::uint64_t sequence) const {
  return (fs::path(directory_) / entry(sequence).file).string();
}

GenerationLog::GcResult GenerationLog::gc(std::size_t keep) {
  if (keep == 0) {
    throw InvalidArgument(
        "GenerationLog: gc must keep at least one generation");
  }
  GcResult res;
  if (entries_.empty()) return res;

  const std::size_t keepCount = entries_.size() < keep ? entries_.size() : keep;
  const std::size_t firstKept = entries_.size() - keepCount;
  std::vector<GenerationEntry> kept(entries_.begin() +
                                        static_cast<std::ptrdiff_t>(firstKept),
                                    entries_.end());
  const std::uint64_t keptFloor = kept.front().sequence;
  res.kept = keepCount;
  res.retired = firstKept;

  // Step 1: move the commit authority first. The rewritten manifest lists
  // exactly the kept entries (quarantined lines vanish with their window);
  // the .tmp + rename protocol means a crash leaves one of the two valid
  // manifests, never a blend — and a stray MANIFEST.tmp is swept by the
  // next open like any other .tmp.
  const fs::path tmpPath = manifestPath_ + ".tmp";
  {
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    out << kManifestHeader << '\n';
    for (const auto& entry : kept) out << formatEntryLine(entry);
    out.flush();
    if (!out) {
      std::error_code rmEc;
      fs::remove(tmpPath, rmEc);
      throw GenerationLogError(
          GenerationLogErrorCode::AppendFailed,
          "GenerationLog: gc cannot write " + tmpPath.string());
    }
  }
  std::error_code ec;
  fs::rename(tmpPath, manifestPath_, ec);
  if (ec) {
    std::error_code rmEc;
    fs::remove(tmpPath, rmEc);
    throw GenerationLogError(
        GenerationLogErrorCode::AppendFailed,
        "GenerationLog: gc cannot replace manifest in " + directory_ + ": " +
            ec.message());
  }

  // Step 2: now that no manifest line references them, delete every gen
  // file strictly below the kept floor — retired committed generations,
  // and any old orphans or quarantined files down there with them. A
  // crash mid-loop leaves orphans the next gc reaps; sequences cannot be
  // reused because every kept entry outranks everything deleted.
  for (const auto& dirent : fs::directory_iterator(directory_, ec)) {
    const std::uint64_t seq =
        sequenceFromFileName(dirent.path().filename().string());
    if (seq == 0 || seq >= keptFloor) continue;
    std::error_code rmEc;
    if (fs::remove(dirent.path(), rmEc) && !rmEc) ++res.removedFiles;
  }

  entries_ = std::move(kept);
  obs::count(obs::Counter::GenlogGcRetired, res.retired);
  obs::gaugeSet(obs::Gauge::GenlogGenerations,
                static_cast<std::int64_t>(entries_.size()));
  return res;
}

RecoveryReport GenerationLog::verify() const {
  RecoveryReport report;
  report.manifestLines = entries_.size();
  for (const auto& e : entries_) {
    RecoverySkipReason reason;
    std::string detail;
    if (!validateEntryFile(fs::path(directory_) / e.file, e, reason,
                           detail)) {
      report.add(reason, e.sequence, std::move(detail));
    }
  }
  return report;
}

}  // namespace fpsm
