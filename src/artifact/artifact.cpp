#include "artifact/artifact.h"

#include <cstring>
#include <utility>

#include "artifact/checksum.h"
#include "util/chars.h"
#include "util/check.h"

namespace fpsm {

const char* artifactSectionName(ArtifactSection id) {
  switch (id) {
    case ArtifactSection::Config: return "Config";
    case ArtifactSection::BaseWords: return "BaseWords";
    case ArtifactSection::BaseTrie: return "BaseTrie";
    case ArtifactSection::ReverseTrie: return "ReverseTrie";
    case ArtifactSection::Structures: return "Structures";
    case ArtifactSection::Segments: return "Segments";
  }
  return "?";
}

const char* artifactErrorCodeName(ArtifactErrorCode code) {
  switch (code) {
    case ArtifactErrorCode::Io: return "io";
    case ArtifactErrorCode::Truncated: return "truncated";
    case ArtifactErrorCode::BadMagic: return "bad-magic";
    case ArtifactErrorCode::BadVersion: return "bad-version";
    case ArtifactErrorCode::BadEndianness: return "bad-endianness";
    case ArtifactErrorCode::BadHeader: return "bad-header";
    case ArtifactErrorCode::BadSectionTable: return "bad-section-table";
    case ArtifactErrorCode::ChecksumMismatch: return "checksum-mismatch";
    case ArtifactErrorCode::BadSection: return "bad-section";
    case ArtifactErrorCode::OutOfRange: return "out-of-range";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(ArtifactErrorCode code, const std::string& what) {
  throw ArtifactError(code, what);
}

/// Bounds-checked little-endian reader over one section payload. Numeric
/// reads go through memcpy (no alignment requirement); array views are
/// handed out as typed pointers only after an explicit alignment check, so
/// a corrupt length field can never misalign a later typed access (UBSan's
/// alignment checker stays quiet on every input, valid or not).
class Cursor {
 public:
  Cursor(const std::byte* data, std::uint64_t size, ArtifactSection section)
      : data_(data), size_(size), section_(section) {}

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, need(4), 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, need(8), 8);
    return v;
  }
  double f64() {
    double v;
    std::memcpy(&v, need(8), 8);
    return v;
  }

  const std::uint32_t* u32Array(std::uint64_t n) {
    return typedArray<std::uint32_t>(n);
  }
  const std::uint64_t* u64Array(std::uint64_t n) {
    return typedArray<std::uint64_t>(n);
  }
  const char* charArray(std::uint64_t n) {
    return reinterpret_cast<const char*>(need(n));
  }

  /// Consumes the padding up to the next 8-byte boundary; it must be zero
  /// (every padding byte is covered by validation, not just the checksum).
  void alignTo8() {
    const std::uint64_t pad = (8 - (pos_ & 7)) & 7;
    if (pad == 0) return;
    const std::byte* p = need(pad);
    for (std::uint64_t i = 0; i < pad; ++i) {
      if (p[i] != std::byte{0}) {
        fail(ArtifactErrorCode::BadSection,
             std::string(artifactSectionName(section_)) +
                 ": nonzero alignment padding");
      }
    }
  }

  std::uint64_t remaining() const { return size_ - pos_; }

  void expectEnd() const {
    if (pos_ != size_) {
      fail(ArtifactErrorCode::BadSection,
           std::string(artifactSectionName(section_)) + ": " +
               std::to_string(size_ - pos_) + " trailing bytes");
    }
  }

 private:
  const std::byte* need(std::uint64_t n) {
    if (n > size_ - pos_) {
      fail(ArtifactErrorCode::BadSection,
           std::string(artifactSectionName(section_)) +
               ": payload shorter than its own header claims");
    }
    const std::byte* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  const T* typedArray(std::uint64_t n) {
    if (n > kArtifactMaxCount) {
      fail(ArtifactErrorCode::BadSection,
           std::string(artifactSectionName(section_)) +
               ": array count exceeds format limit");
    }
    const std::byte* p = need(n * sizeof(T));
    if ((reinterpret_cast<std::uintptr_t>(p) & (alignof(T) - 1)) != 0) {
      fail(ArtifactErrorCode::BadSection,
           std::string(artifactSectionName(section_)) +
               ": misaligned array");
    }
    return reinterpret_cast<const T*>(p);
  }

  const std::byte* data_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
  ArtifactSection section_;
};

std::uint32_t readU32At(const std::byte* data, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, data + off, 4);
  return v;
}

std::uint64_t readU64At(const std::byte* data, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, data + off, 8);
  return v;
}

bool isValidStructureKey(std::string_view key) {
  std::size_t i = 0;
  while (i < key.size()) {
    if (key[i] != 'B') return false;
    ++i;
    if (i >= key.size() || !isDigit(key[i]) || key[i] == '0') return false;
    while (i < key.size() && isDigit(key[i])) ++i;
  }
  return i > 0;  // at least one segment
}

/// Parsed Config section, assigned into the view by init().
struct ConfigData {
  FuzzyConfig config;
  std::uint64_t capYes = 0;
  std::uint64_t capTotal = 0;
  std::uint64_t revYes = 0;
  std::uint64_t revTotal = 0;
  std::uint64_t leetYes[kNumLeetRules] = {};
  std::uint64_t leetTotal[kNumLeetRules] = {};
  std::uint64_t trainedPasswords = 0;
};

ConfigData parseConfig(Cursor c) {
  ConfigData d;
  const std::uint32_t minLen = c.u32();
  const std::uint32_t flags = c.u32();
  const double prior = c.f64();
  if (minLen == 0) {
    fail(ArtifactErrorCode::BadSection, "Config: minBaseWordLen must be >= 1");
  }
  if ((flags & ~kArtifactKnownFlags) != 0) {
    fail(ArtifactErrorCode::BadSection, "Config: unknown flag bits");
  }
  if (!validTransformationPrior(prior)) {
    fail(ArtifactErrorCode::BadSection,
         "Config: transformationPrior out of range");
  }
  d.config.minBaseWordLen = minLen;
  d.config.matchCapitalization =
      (flags & kArtifactFlagMatchCapitalization) != 0;
  d.config.matchLeet = (flags & kArtifactFlagMatchLeet) != 0;
  d.config.retryTrieInsideRuns =
      (flags & kArtifactFlagRetryTrieInsideRuns) != 0;
  d.config.matchReverse = (flags & kArtifactFlagMatchReverse) != 0;
  d.config.transformationPrior = prior;

  d.capYes = c.u64();
  d.capTotal = c.u64();
  d.revYes = c.u64();
  d.revTotal = c.u64();
  if (d.capYes > d.capTotal || d.revYes > d.revTotal) {
    fail(ArtifactErrorCode::BadSection, "Config: yes count exceeds total");
  }
  for (int r = 0; r < kNumLeetRules; ++r) d.leetYes[r] = c.u64();
  for (int r = 0; r < kNumLeetRules; ++r) d.leetTotal[r] = c.u64();
  for (int r = 0; r < kNumLeetRules; ++r) {
    if (d.leetYes[r] > d.leetTotal[r]) {
      fail(ArtifactErrorCode::BadSection, "Config: yes count exceeds total");
    }
  }
  d.trainedPasswords = c.u64();
  c.expectEnd();
  return d;
}

/// Parsed BaseWords section: offsets into the shared word pool.
struct BaseWordsData {
  const std::uint32_t* off = nullptr;
  const char* pool = nullptr;
  std::uint64_t count = 0;
};

BaseWordsData parseBaseWords(Cursor c) {
  const std::uint64_t count = c.u64();
  const std::uint64_t poolBytes = c.u64();
  if (count > kArtifactMaxCount || poolBytes > 0xffffffffull) {
    fail(ArtifactErrorCode::BadSection, "BaseWords: counts exceed limits");
  }
  const std::uint32_t* off = c.u32Array(count + 1);
  const char* pool = c.charArray(poolBytes);
  c.expectEnd();
  if (off[0] != 0 || off[count] != poolBytes) {
    fail(ArtifactErrorCode::OutOfRange, "BaseWords: offset table endpoints");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    if (off[i] >= off[i + 1]) {
      fail(ArtifactErrorCode::OutOfRange,
           "BaseWords: offsets not strictly increasing");
    }
  }
  for (std::uint64_t i = 0; i < poolBytes; ++i) {
    if (!isPrintableAscii(pool[i])) {
      fail(ArtifactErrorCode::BadSection,
           "BaseWords: non-printable byte in word pool");
    }
  }
  return {off, pool, count};
}

FlatTrieView parseTrie(Cursor c, ArtifactSection section) {
  const std::uint32_t nodeCount = c.u32();
  const std::uint32_t edgeCount = c.u32();
  const std::uint64_t wordCount = c.u64();
  const char* name = artifactSectionName(section);
  if (nodeCount == 0 || nodeCount > kArtifactMaxCount) {
    fail(ArtifactErrorCode::BadSection,
         std::string(name) + ": node count out of range");
  }
  if (edgeCount != nodeCount - 1) {
    // Every non-root node has exactly one incoming edge; anything else
    // cannot have been produced by the compiler.
    fail(ArtifactErrorCode::BadSection,
         std::string(name) + ": edge count != node count - 1");
  }
  const std::uint32_t* edgeBegin = c.u32Array(nodeCount);
  const std::uint32_t* edgeMeta = c.u32Array(nodeCount);
  const std::uint32_t* edgeTargets = c.u32Array(edgeCount);
  const char* edgeLabels = c.charArray(edgeCount);
  c.expectEnd();
  FlatTrieView view(edgeBegin, edgeMeta, nodeCount, edgeTargets, edgeLabels,
                    edgeCount, wordCount);
  if (const std::string defect = view.validate(); !defect.empty()) {
    fail(ArtifactErrorCode::OutOfRange, std::string(name) + ": " + defect);
  }
  return view;
}

/// Parses one count table given its already-read `distinct` field.
/// `expectLen` > 0 pins every form to that length (segment tables).
FlatTableView parseCountTable(Cursor& c, ArtifactSection section,
                              std::uint32_t distinct,
                              std::uint32_t expectLen) {
  const char* name = artifactSectionName(section);
  const std::uint64_t total = c.u64();
  const std::uint64_t poolBytes = c.u64();
  if (distinct > kArtifactMaxCount || poolBytes > 0xffffffffull) {
    fail(ArtifactErrorCode::BadSection,
         std::string(name) + ": table counts exceed limits");
  }
  const std::uint64_t* counts = c.u64Array(distinct);
  const std::uint32_t* strOff = c.u32Array(distinct);
  const std::uint32_t* strLen = c.u32Array(distinct);
  const char* pool = c.charArray(poolBytes);

  std::uint64_t sum = 0;
  std::string_view prev;
  for (std::uint32_t i = 0; i < distinct; ++i) {
    if (counts[i] == 0) {
      fail(ArtifactErrorCode::BadSection,
           std::string(name) + ": zero-count table entry");
    }
    if (sum > ~counts[i]) {  // sum + counts[i] would overflow
      fail(ArtifactErrorCode::BadSection,
           std::string(name) + ": count sum overflows");
    }
    sum += counts[i];
    if (strLen[i] == 0 ||
        static_cast<std::uint64_t>(strOff[i]) + strLen[i] > poolBytes) {
      fail(ArtifactErrorCode::OutOfRange,
           std::string(name) + ": string slice outside pool");
    }
    if (expectLen != 0 && strLen[i] != expectLen) {
      fail(ArtifactErrorCode::BadSection,
           std::string(name) + ": form length != table segment length");
    }
    const std::string_view form(pool + strOff[i], strLen[i]);
    if (i > 0 && !(prev < form)) {
      fail(ArtifactErrorCode::BadSection,
           std::string(name) + ": forms not strictly ascending");
    }
    prev = form;
  }
  if (sum != total) {
    fail(ArtifactErrorCode::BadSection,
         std::string(name) + ": total != sum of counts");
  }
  return FlatTableView(counts, strOff, strLen, pool, distinct, total);
}

FlatTableView parseStructures(Cursor c) {
  const std::uint32_t distinct = c.u32();
  const std::uint32_t reserved = c.u32();
  if (reserved != 0) {
    fail(ArtifactErrorCode::BadSection, "Structures: nonzero reserved field");
  }
  const FlatTableView table =
      parseCountTable(c, ArtifactSection::Structures, distinct, 0);
  c.expectEnd();
  for (std::uint32_t i = 0; i < distinct; ++i) {
    if (!isValidStructureKey(table.form(i))) {
      fail(ArtifactErrorCode::BadSection,
           "Structures: malformed structure key");
    }
  }
  return table;
}

std::vector<std::pair<std::uint32_t, FlatTableView>> parseSegments(Cursor c) {
  const std::uint32_t tableCount = c.u32();
  const std::uint32_t reserved = c.u32();
  if (reserved != 0) {
    fail(ArtifactErrorCode::BadSection, "Segments: nonzero reserved field");
  }
  if (tableCount > kArtifactMaxCount) {
    fail(ArtifactErrorCode::BadSection, "Segments: table count exceeds limit");
  }
  std::vector<std::pair<std::uint32_t, FlatTableView>> tables;
  tables.reserve(tableCount);
  std::uint32_t prevLen = 0;
  for (std::uint32_t t = 0; t < tableCount; ++t) {
    const std::uint32_t segLen = c.u32();
    const std::uint32_t distinct = c.u32();
    if (segLen == 0 || (t > 0 && segLen <= prevLen)) {
      fail(ArtifactErrorCode::BadSection,
           "Segments: table lengths not strictly increasing");
    }
    prevLen = segLen;
    tables.emplace_back(segLen, parseCountTable(c, ArtifactSection::Segments,
                                                distinct, segLen));
    c.alignTo8();
  }
  c.expectEnd();
  return tables;
}

}  // namespace

void GrammarArtifact::init(const std::byte* data, std::size_t size) {
  data_ = data;
  size_ = size;

  // --- header ------------------------------------------------------------
  if (size < kArtifactHeaderBytes) {
    fail(ArtifactErrorCode::Truncated,
         "file shorter than the " + std::to_string(kArtifactHeaderBytes) +
             "-byte header (" + std::to_string(size) + " bytes)");
  }
  if (readU32At(data, 0) != kArtifactMagic) {
    fail(ArtifactErrorCode::BadMagic, "not an .fpsmb grammar artifact");
  }
  version_ = readU32At(data, 4);
  if (version_ != kArtifactVersion) {
    fail(ArtifactErrorCode::BadVersion,
         "format version " + std::to_string(version_) +
             " unsupported (reader speaks version " +
             std::to_string(kArtifactVersion) + ")");
  }
  if (readU32At(data, 8) != kArtifactEndianTag) {
    fail(ArtifactErrorCode::BadEndianness,
         "artifact produced on a machine with different byte order");
  }
  const std::uint32_t sectionCount = readU32At(data, 12);
  if (sectionCount != kArtifactSectionCount) {
    fail(ArtifactErrorCode::BadHeader,
         "version-1 artifacts carry exactly " +
             std::to_string(kArtifactSectionCount) + " sections, found " +
             std::to_string(sectionCount));
  }
  const std::uint64_t fileBytes = readU64At(data, 16);
  if (fileBytes != size) {
    fail(ArtifactErrorCode::Truncated,
         "header records " + std::to_string(fileBytes) +
             " bytes, buffer holds " + std::to_string(size));
  }
  if (readU64At(data, 24) != 0) {
    fail(ArtifactErrorCode::BadHeader, "nonzero reserved header field");
  }

  const std::size_t preludeBytes =
      kArtifactHeaderBytes + sectionCount * kArtifactSectionEntryBytes;
  if (size < preludeBytes) {
    fail(ArtifactErrorCode::Truncated, "file shorter than its section table");
  }
  // Header checksum covers header + section table with the checksum field
  // zeroed, so a flip anywhere in the prelude — including inside a section
  // entry's own checksum — is caught here.
  {
    std::vector<std::byte> prelude(data, data + preludeBytes);
    std::memset(prelude.data() + 32, 0, 8);
    const std::uint64_t expect = readU64At(data, 32);
    const std::uint64_t actual = xxhash64(prelude.data(), prelude.size());
    if (expect != actual) {
      fail(ArtifactErrorCode::ChecksumMismatch, "header checksum");
    }
  }

  // --- section table -----------------------------------------------------
  sections_.clear();
  std::uint64_t cursor = preludeBytes;
  for (std::uint32_t i = 0; i < sectionCount; ++i) {
    const std::size_t entry =
        kArtifactHeaderBytes + i * kArtifactSectionEntryBytes;
    const std::uint32_t id = readU32At(data, entry);
    const std::uint32_t reserved = readU32At(data, entry + 4);
    const std::uint64_t offset = readU64At(data, entry + 8);
    const std::uint64_t bytes = readU64At(data, entry + 16);
    const std::uint64_t checksum = readU64At(data, entry + 24);
    if (id != i + 1 || reserved != 0) {
      fail(ArtifactErrorCode::BadSectionTable,
           "section " + std::to_string(i) + ": unexpected id or reserved");
    }
    const std::uint64_t alignedCursor = (cursor + 7) & ~7ull;
    if (offset != alignedCursor) {
      fail(ArtifactErrorCode::BadSectionTable,
           std::string(artifactSectionName(ArtifactSection(id))) +
               ": unexpected offset");
    }
    if (bytes > size || offset > size - bytes) {
      fail(ArtifactErrorCode::Truncated,
           std::string(artifactSectionName(ArtifactSection(id))) +
               ": section extends past end of file");
    }
    // Inter-section padding must be zero so no byte of the file escapes
    // both the checksums and validation.
    for (std::uint64_t p = cursor; p < offset; ++p) {
      if (data[p] != std::byte{0}) {
        fail(ArtifactErrorCode::BadSectionTable, "nonzero section padding");
      }
    }
    if (xxhash64(data + offset, bytes) != checksum) {
      fail(ArtifactErrorCode::ChecksumMismatch,
           std::string(artifactSectionName(ArtifactSection(id))) +
               " section checksum");
    }
    sections_.push_back({ArtifactSection(id), offset, bytes, checksum});
    cursor = offset + bytes;
  }
  if (cursor != size) {
    fail(ArtifactErrorCode::BadSectionTable,
         std::to_string(size - cursor) + " trailing bytes after last section");
  }

  // --- section payloads --------------------------------------------------
  auto payload = [&](ArtifactSection id) {
    // Section ids were range-checked while the table was parsed above;
    // restate the bound where the cast indexes, so it holds locally too.
    const std::uint32_t idx = static_cast<std::uint32_t>(id);
    FPSM_CHECK(idx >= 1 && idx <= sections_.size());
    const auto& s = sections_[idx - 1];
    return Cursor(data + s.offset, s.bytes, id);
  };

  const ConfigData cfg = parseConfig(payload(ArtifactSection::Config));
  view_.config_ = cfg.config;
  view_.capYes_ = cfg.capYes;
  view_.capTotal_ = cfg.capTotal;
  view_.revYes_ = cfg.revYes;
  view_.revTotal_ = cfg.revTotal;
  for (int r = 0; r < kNumLeetRules; ++r) {
    view_.leetYes_[r] = cfg.leetYes[r];
    view_.leetTotal_[r] = cfg.leetTotal[r];
  }
  view_.trainedPasswords_ = cfg.trainedPasswords;

  const BaseWordsData words =
      parseBaseWords(payload(ArtifactSection::BaseWords));
  view_.baseWordOff_ = words.off;
  view_.baseWordPool_ = words.pool;
  view_.baseWordCount_ = words.count;

  view_.trie_ = parseTrie(payload(ArtifactSection::BaseTrie),
                          ArtifactSection::BaseTrie);
  view_.reversedTrie_ = parseTrie(payload(ArtifactSection::ReverseTrie),
                                  ArtifactSection::ReverseTrie);
  view_.structures_ = parseStructures(payload(ArtifactSection::Structures));
  view_.segments_ = parseSegments(payload(ArtifactSection::Segments));
}

std::shared_ptr<const GrammarArtifact> GrammarArtifact::open(
    const std::string& path) {
  std::shared_ptr<GrammarArtifact> art(new GrammarArtifact());
  art->map_ = MappedFile::open(path);
  art->init(art->map_.data(), art->map_.size());
  return art;
}

std::shared_ptr<const GrammarArtifact> GrammarArtifact::fromBytes(
    std::vector<std::byte> bytes) {
  std::shared_ptr<GrammarArtifact> art(new GrammarArtifact());
  art->owned_ = std::move(bytes);
  art->init(art->owned_.data(), art->owned_.size());
  return art;
}

}  // namespace fpsm
