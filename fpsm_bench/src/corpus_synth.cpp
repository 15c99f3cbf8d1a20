#include "corpus_synth.h"

#include "util/wordlists.h"

namespace fpsm::suite {

Dataset::Entry synthesizeEntry(Rng& rng) {
  const auto common = words::commonPasswords();
  const auto english = words::englishWords();
  const auto names = words::englishNames();
  const auto digits = words::digitStrings();
  std::string pw;
  switch (rng.below(8)) {
    case 0: pw = std::string(common[rng.below(common.size())]); break;
    case 1: pw = std::string(english[rng.below(english.size())]); break;
    case 2:
      pw = std::string(english[rng.below(english.size())]) +
           std::to_string(rng.below(10000));
      break;
    case 3:
      pw = std::string(names[rng.below(names.size())]);
      pw[0] = static_cast<char>(pw[0] - 'a' + 'A');
      pw += std::to_string(1950 + rng.below(70));
      break;
    case 4: pw = std::string(digits[rng.below(digits.size())]); break;
    case 5:
      pw = std::string(english[rng.below(english.size())]);
      for (char& c : pw) {
        if (c == 'a') c = '@';
        if (c == 'o') c = '0';
      }
      break;
    case 6: pw = std::string(common[rng.below(common.size())]) + "!"; break;
    default: {
      const std::size_t len = 6 + rng.below(6);
      for (std::size_t k = 0; k < len; ++k) {
        pw += static_cast<char>('!' + rng.below(94));
      }
      break;
    }
  }
  return Dataset::Entry{pw, 1 + rng.below(3)};
}

std::vector<std::string> synthBaseWords() {
  std::vector<std::string> out;
  for (const auto list : {words::commonPasswords(), words::englishWords(),
                          words::englishNames(), words::pinyinWords(),
                          words::keyboardWalks()}) {
    for (const auto w : list) out.emplace_back(w);
  }
  return out;
}

}  // namespace fpsm::suite
