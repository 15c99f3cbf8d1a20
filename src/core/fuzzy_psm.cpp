#include "core/fuzzy_psm.h"

namespace fpsm {

FuzzyPsm::FuzzyPsm(FuzzyConfig config) : config_(config) {
  // Validate eagerly by constructing a parser once.
  FuzzyParser validator(trie_, config_, &reversedTrie_);
  (void)validator;
}

void FuzzyPsm::addBaseWord(std::string_view word) {
  if (word.size() < config_.minBaseWordLen) return;
  if (!isValidPassword(word)) return;
  const std::string lower = toLowerCopy(word);
  if (trie_.insert(lower)) {
    baseWords_.push_back(lower);
    if (config_.matchReverse) {
      std::string rev(lower.rbegin(), lower.rend());
      reversedTrie_.insert(rev);
    }
  }
}

void FuzzyPsm::loadBaseDictionary(const Dataset& base) {
  base.forEach(
      [this](std::string_view pw, std::uint64_t) { addBaseWord(pw); });
}

FuzzyParse FuzzyPsm::parse(std::string_view pw) const {
  return FuzzyParser(trie_, config_, &reversedTrie_).parse(pw);
}

void FuzzyPsm::update(std::string_view pw, std::uint64_t n) {
  if (n == 0) return;
  counts_.addParse(parse(pw), n, config_.matchReverse);
}

void FuzzyPsm::train(const Dataset& training) {
  training.forEach(
      [this](std::string_view pw, std::uint64_t c) { update(pw, c); });
}

}  // namespace fpsm
