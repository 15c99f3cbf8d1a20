// The synthetic training corpus of bench/bench_train_parallel.cpp, seeded
// from the run: dictionary words with suffix digits, capitalisation and
// leet, pure-digit idioms, and random runs that only the L/D/S fallback
// parses. retrain-compact trains on it; audit-unique tops up its distinct
// passwords from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/dataset.h"
#include "util/rng.h"

namespace fpsm::suite {

/// Draws one corpus entry (password and a count in 1..3).
Dataset::Entry synthesizeEntry(Rng& rng);

/// The base dictionary the corpus is trained against: common passwords,
/// English words and names, pinyin words and keyboard walks.
std::vector<std::string> synthBaseWords();

}  // namespace fpsm::suite
