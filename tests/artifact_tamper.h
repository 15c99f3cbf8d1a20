// Shared tamper utilities for .fpsmb corruption batteries.
//
// Extracted from tests/artifact_test.cpp so other test suites that need to
// damage artifacts in controlled ways — the generation-log crash-recovery
// battery in tests/online_test.cpp — seed byte-level defects with the same
// primitives the loader's own battery uses. Test-only header: depends on
// gtest assertions (repairChecksums aborts the calling test on malformed
// geometry rather than tampering out of bounds).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/checksum.h"

namespace fpsm {
namespace test_tamper {

using Bytes = std::vector<std::byte>;

inline std::uint32_t readU32(const Bytes& b, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + off, 4);
  return v;
}

inline std::uint64_t readU64(const Bytes& b, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}

inline void writeU32(Bytes& b, std::size_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, 4);
}

inline void writeU64(Bytes& b, std::size_t off, std::uint64_t v) {
  std::memcpy(b.data() + off, &v, 8);
}

constexpr std::size_t kPrelude =
    kArtifactHeaderBytes + kArtifactSectionCount * kArtifactSectionEntryBytes;

/// Recomputes every section checksum (from the current, possibly tampered
/// geometry) and the header checksum, so a targeted tamper reaches the
/// deep structural validation instead of dying at the checksum gate.
inline void repairChecksums(Bytes& b) {
  ASSERT_GE(b.size(), kPrelude);
  for (std::uint32_t i = 0; i < kArtifactSectionCount; ++i) {
    const std::size_t entry =
        kArtifactHeaderBytes + i * kArtifactSectionEntryBytes;
    const std::uint64_t offset = readU64(b, entry + 8);
    const std::uint64_t bytes = readU64(b, entry + 16);
    ASSERT_LE(offset + bytes, b.size());
    writeU64(b, entry + 24, xxhash64(b.data() + offset, bytes));
  }
  writeU64(b, 32, 0);
  writeU64(b, 32, xxhash64(b.data(), kPrelude));
}

/// The corruption-battery oracle: loading must throw ArtifactError —
/// anything else (success, a different exception, a crash) is a failure.
inline void expectRejected(Bytes bytes, const char* context) {
  try {
    (void)GrammarArtifact::fromBytes(std::move(bytes));
    ADD_FAILURE() << context << ": corrupted artifact loaded cleanly";
  } catch (const ArtifactError&) {
    // typed rejection: exactly the contract
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": wrong exception type: " << e.what();
  }
}

/// Typed variant: additionally pins the error code.
inline void expectRejectedAs(Bytes bytes, ArtifactErrorCode code,
                             const char* context) {
  try {
    (void)GrammarArtifact::fromBytes(std::move(bytes));
    ADD_FAILURE() << context << ": corrupted artifact loaded cleanly";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(code))
        << context << ": rejected as [" << artifactErrorCodeName(e.code())
        << "], expected [" << artifactErrorCodeName(code) << "]: "
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": wrong exception type: " << e.what();
  }
}

}  // namespace test_tamper
}  // namespace fpsm
