// fpsm_lint — project-invariant linter for the fuzzyPSM tree (DESIGN.md §13).
//
// Clang's -Wthread-safety proves that annotated code follows its locking
// discipline, but it cannot require that code BE annotated, nor enforce
// project conventions that live above the type system. This tool closes
// that gap with deliberately simple token/regex checks (no libclang — it
// builds with the same toolchain as the tree and runs in milliseconds):
//
//   R001 raw-sync-primitive     std::mutex & friends outside src/util/
//                               (all locking goes through util/mutex.h so
//                               every lock is capability-annotated)
//   R002 raw-thread             std::thread outside src/util/ (threads are
//                               owned by util/parallel.h or suppressed with
//                               a written rationale)
//   R003 raw-array-new          new[] outside src/util/ (containers own
//                               memory; the hot path owns none)
//   R004 hot-path-lock          any lock token in the scoring kernels —
//                               the serve path's "no locks while scoring"
//                               guarantee, made mechanical
//   R005 unchecked-artifact-cast  narrowing static_cast at the artifact
//                               byte boundary with no FPSM_CHECK / throw /
//                               static_assert nearby
//   R006 unannotated-guarded-field  a field of a Mutex-holding class with
//                               neither FPSM_GUARDED_BY nor a recognized
//                               self-synchronizing type
//   R007 unannotated-public-method  a public method of a Mutex-holding
//                               class with no FPSM_ annotation (use
//                               FPSM_NO_CAPABILITY to state "touches no
//                               guarded state" explicitly)
//   R008 metric-site-side-effect  a metric-update call site (obs::count /
//                               gaugeSet / gaugeAdd / observe / StageTimer)
//                               outside src/obs/ sharing a line with a raw
//                               clock read, a lock token, or an allocation
//                               — the "one relaxed atomic add per event"
//                               hot-path budget (DESIGN.md §14), made
//                               mechanical
//
// False positives are expected occasionally — that is what the suppression
// file is for: `rule path-suffix [line-substring]` per line, checked in
// next to this tool, so every exception is visible in review. Run with
// --print-suppressions to get ready-to-paste entries for current findings.
//
// Exit status: 0 clean (after suppressions), 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string rule;      // "R001"
  std::string name;      // "raw-sync-primitive"
  std::string path;      // as scanned
  std::size_t line = 0;  // 1-based
  std::string message;
  std::string fix;
  std::string lineText;  // raw source line, trimmed
};

struct Suppression {
  std::string rule;
  std::string pathSuffix;
  std::string substring;  // empty = any line
  mutable bool used = false;
};

struct FileText {
  std::string path;
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // comments/strings/preprocessor blanked
};

std::string trim(std::string_view s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(b, e - b + 1));
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Blanks comments, string/char literals, and preprocessor lines, keeping
/// the line structure (and therefore line numbers) intact. Token rules run
/// on this copy so a lock named in prose never trips them.
std::vector<std::string> stripCode(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool inBlockComment = false;
  for (const std::string& line : raw) {
    std::string code;
    code.reserve(line.size());
    const std::string t = trim(line);
    if (!inBlockComment && !t.empty() && t[0] == '#') {
      out.push_back("");  // preprocessor line
      continue;
    }
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (inBlockComment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          inBlockComment = false;
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        inBlockComment = true;
        ++i;
        continue;
      }
      if (c == '"') {
        code.push_back('"');
        for (++i; i < line.size(); ++i) {
          if (line[i] == '\\') {
            ++i;
          } else if (line[i] == '"') {
            break;
          }
        }
        code.push_back('"');
        continue;
      }
      // A ' after an identifier/digit character is a digit separator
      // (1'000'000), not a char literal.
      if (c == '\'' &&
          (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                      line[i - 1] != '_'))) {
        for (++i; i < line.size(); ++i) {
          if (line[i] == '\\') {
            ++i;
          } else if (line[i] == '\'') {
            break;
          }
        }
        code.push_back('\'');
        continue;
      }
      code.push_back(c);
    }
    out.push_back(std::move(code));
  }
  return out;
}

bool isUtilPath(const std::string& path) {
  return path.find("util/") != std::string::npos ||
         path.find("util\\") != std::string::npos;
}

// The exemption is anchored to src/obs/ specifically: the seeded R008
// fixture lives under tests/lint_tool/seed/obs/ and must still be scanned.
bool isObsPath(const std::string& path) {
  return path.find("src/obs/") != std::string::npos ||
         path.find("src\\obs\\") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Class-structure scanner for R006/R007. A tiny brace-tracking pass over the
// blanked code: every '{' opens a scope, a scope whose opening statement
// looks like `class X` / `struct X` is a class scope, and the statements at
// a class scope's own depth are its member declarations.
// ---------------------------------------------------------------------------

struct Statement {
  std::string text;       // accumulated declaration, single-spaced
  std::size_t line = 0;   // line the statement started on
  bool opensBlock = false;  // ended at '{' (inline body / nested type)
  std::string access;     // access section active when it was recorded
};

struct ClassScope {
  std::string name;
  std::size_t line = 0;
  std::vector<Statement> members;
};

struct ScopeFrame {
  bool isClass = false;
  std::string name;
  std::string access;  // current access section (class scopes only)
  std::vector<Statement> members;
  std::size_t line = 0;
};

std::vector<ClassScope> scanClasses(const FileText& file) {
  static const std::regex kClassHead(
      R"(^(template\s*<[^{;]*>\s*)?(class|struct)\s+(FPSM_[A-Z_]+\(.*\)\s+)?([A-Za-z_]\w*))");

  std::vector<ClassScope> classes;
  std::vector<ScopeFrame> stack;
  stack.push_back({});  // file scope
  std::string stmt;
  std::size_t stmtLine = 0;

  auto record = [&](bool opensBlock) {
    std::string text = trim(stmt);
    stmt.clear();
    if (text.empty()) return Statement{};
    Statement s;
    s.text = std::move(text);
    s.line = stmtLine;
    s.opensBlock = opensBlock;
    s.access = stack.back().access;
    stack.back().members.push_back(s);
    return s;
  };

  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (trim(stmt).empty()) stmtLine = li + 1;
      if (c == '{') {
        const Statement opener = record(true);
        ScopeFrame frame;
        std::smatch m;
        if (!opener.text.empty() &&
            std::regex_search(opener.text, m, kClassHead) &&
            opener.text.rfind("enum", 0) != 0) {
          frame.isClass = true;
          frame.name = m[4];
          frame.access = (m[2] == "struct") ? "public" : "private";
          frame.line = opener.line;
        }
        stack.push_back(std::move(frame));
      } else if (c == '}') {
        stmt.clear();
        if (stack.size() > 1) {
          ScopeFrame done = std::move(stack.back());
          stack.pop_back();
          if (done.isClass) {
            classes.push_back(
                ClassScope{done.name, done.line, std::move(done.members)});
          }
        }
      } else if (c == ';') {
        record(false);
      } else if (c == ':') {
        if (i + 1 < line.size() && line[i + 1] == ':') {
          stmt += "::";
          ++i;
          continue;
        }
        const std::string t = trim(stmt);
        if (t == "public" || t == "private" || t == "protected") {
          stack.back().access = t;
          stmt.clear();
        } else {
          stmt += ':';
        }
      } else {
        stmt += c;
      }
    }
    stmt += ' ';  // line break = whitespace
  }
  return classes;
}

bool startsWithWord(const std::string& s, std::string_view word) {
  if (s.rfind(std::string(word), 0) != 0) return false;
  return s.size() == word.size() ||
         !(std::isalnum(static_cast<unsigned char>(s[word.size()])) ||
           s[word.size()] == '_');
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const std::regex kRawSync(
    R"(std::(recursive_mutex|timed_mutex|shared_timed_mutex|shared_mutex|mutex|condition_variable_any|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
const std::regex kRawThread(R"(std::j?thread\b)");
const std::regex kRawArrayNew(R"((^|[^\w_])new\s+[\w:<>,\s]*\[)");
const std::regex kLockToken(
    R"(\b(MutexLock|ReaderLock|WriterLock|SharedMutex|Mutex)\b|std::(mutex|shared_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b|(\.|->)lock(Shared)?\(\))");
const std::regex kNarrowCast(R"(static_cast<std::uint(8|16|32)_t>)");
// R008: a metric update must be the only interesting thing on its line.
// Clock reads belong inside obs::StageTimer (src/obs/stage_timer.h, the
// one audited pairing), and locks/allocation on the same line mean the
// metric call sits inside a critical section or pays for a temporary.
const std::regex kMetricUpdate(
    R"(\bobs::(count|gaugeSet|gaugeAdd|observe|StageTimer)\b)");
const std::regex kMetricSiteBan(
    R"((steady_clock|system_clock|high_resolution_clock)::now|(^|[^\w_])new\s|make_unique|make_shared|std::string\s*\(|\.str\(\))");
const std::regex kCastGuard(
    R"(FPSM_CHECK|FPSM_DCHECK|\bthrow\b|static_assert)");
const std::regex kMutexMember(
    R"((^|[^\w:])(fpsm::)?(Mutex|SharedMutex)\s+[A-Za-z_]\w*$)");
const std::regex kFieldDecl(
    R"(^(mutable\s+)?[A-Za-z_][\w:<>,\s*&\[\]]*[\s>&*]([A-Za-z_]\w*)\s*(=.*|\{.*\})?$)");

/// Files where scoring happens: the serve path's guarantee is "no locks
/// while scoring", so no lock token may appear here at all.
const char* kHotPathFiles[] = {
    "core/fuzzy_parse.", "artifact/flat_grammar.", "trie/trie.",
    "trie/flat_trie.",   "util/byte_scan.",        "serve/grammar_snapshot.",
    "registry/tenant_route.",
};

/// Types a field may have without an FPSM_GUARDED_BY annotation: each is
/// synchronization-free by construction (atomics), internally synchronized,
/// or itself a synchronization primitive. Growing this list is a review
/// decision, same as a suppression.
const char* kSelfSynchronizing[] = {
    "std::atomic", "RcuPtr",     "Mutex",       "SharedMutex",
    "std::thread", "ScoreCache", "UpdateQueue", "TenantMeter",
};

class Linter {
 public:
  void scanFile(const FileText& file) {
    ++filesScanned_;
    const bool util = isUtilPath(file.path);
    const bool header = endsWith(file.path, ".h");
    (void)header;

    for (std::size_t li = 0; li < file.code.size(); ++li) {
      const std::string& code = file.code[li];
      if (code.empty()) continue;
      if (!util) {
        if (std::regex_search(code, kRawSync)) {
          add(file, li, "R001", "raw-sync-primitive",
              "raw standard-library synchronization primitive outside "
              "src/util/",
              "use fpsm::Mutex / MutexLock from util/mutex.h so "
              "the lock is capability-annotated");
        }
        if (std::regex_search(code, kRawThread)) {
          add(file, li, "R002", "raw-thread",
              "raw std::thread outside src/util/",
              "fan work out through util/parallel.h; a long-lived owned "
              "thread needs a suppression with a written rationale");
        }
        if (std::regex_search(code, kRawArrayNew)) {
          add(file, li, "R003", "raw-array-new",
              "raw array new outside src/util/",
              "use std::vector or std::unique_ptr<T[]>");
        }
      }
      if (isHotPath(file.path) && std::regex_search(code, kLockToken)) {
        add(file, li, "R004", "hot-path-lock",
            "lock token in hot-path scoring code",
            "scoring must stay synchronization-free; take the lock in the "
            "serve layer and pass immutable state down");
      }
      if (file.path.find("artifact/") != std::string::npos &&
          std::regex_search(code, kNarrowCast)) {
        if (!castIsGuarded(file, li)) {
          add(file, li, "R005", "unchecked-artifact-cast",
              "narrowing cast at the artifact byte boundary with no "
              "FPSM_CHECK / throw / static_assert within " +
                  std::to_string(kCastWindow) + " lines before or 2 after",
              "assert the value fits before narrowing (FPSM_CHECK(v <= "
              "0xffffffffull)) so a too-large grammar fails loudly instead "
              "of truncating");
        }
      }
      if (!isObsPath(file.path) && std::regex_search(code, kMetricUpdate) &&
          (std::regex_search(code, kMetricSiteBan) ||
           std::regex_search(code, kLockToken))) {
        add(file, li, "R008", "metric-site-side-effect",
            "metric-update call site shares a line with a clock read, lock "
            "token, or allocation",
            "keep the obs:: call on its own line — time spans with "
            "obs::StageTimer, move the call outside the critical section, "
            "and precompute any value that needs allocation");
      }
      if (code.find("FPSM_NO_THREAD_SAFETY_ANALYSIS") != std::string::npos &&
          file.path.find("thread_annotations.h") == std::string::npos) {
        ++escapeHatches_;
      }
    }

    for (const ClassScope& cls : scanClasses(file)) {
      checkClass(file, cls);
    }
  }

  void checkClass(const FileText& file, const ClassScope& cls) {
    bool hasMutex = false;
    for (const Statement& s : cls.members) {
      if (!s.opensBlock && std::regex_search(s.text, kMutexMember)) {
        hasMutex = true;
        break;
      }
    }
    if (!hasMutex) return;

    for (const Statement& s : cls.members) {
      if (keywordStatement(s.text)) continue;
      if (s.text.find("FPSM_") != std::string::npos) continue;  // annotated
      const bool method = s.text.find('(') != std::string::npos;
      if (method) {
        if (s.access != "public") continue;
        if (methodExempt(cls.name, s.text)) continue;
        add(file, s.line - 1, "R007", "unannotated-public-method",
            "public method of Mutex-holding class " + cls.name +
                " has no FPSM_ annotation",
            "state the locking relationship: FPSM_EXCLUDES / FPSM_REQUIRES "
            "the capability it touches, or FPSM_NO_CAPABILITY if it "
            "touches none");
      } else {
        if (startsWithWord(s.text, "const")) continue;  // immutable field
        if (selfSynchronizing(s.text)) continue;
        std::smatch m;
        if (!std::regex_match(s.text, m, kFieldDecl)) continue;
        add(file, s.line - 1, "R006", "unannotated-guarded-field",
            "field '" + std::string(m[2]) + "' of Mutex-holding class " +
                cls.name + " is not FPSM_GUARDED_BY any capability",
            "annotate it FPSM_GUARDED_BY(<mutex>) (or FPSM_PT_GUARDED_BY "
            "for a pointee), make it const, or use a self-synchronizing "
            "type");
      }
    }
  }

  static bool keywordStatement(const std::string& s) {
    for (const char* k :
         {"using", "friend", "typedef", "enum", "class", "struct",
          "template", "public", "private", "protected", "static"}) {
      if (startsWithWord(s, k)) return true;
    }
    return false;
  }

  static bool methodExempt(const std::string& className,
                           const std::string& s) {
    if (s.find(className + "(") != std::string::npos) return true;  // ctor
    if (!s.empty() && s[0] == '~') return true;                     // dtor
    if (s.find("operator") != std::string::npos) return true;
    if (s.find("= delete") != std::string::npos) return true;
    if (s.find("= default") != std::string::npos) return true;
    return false;
  }

  static bool selfSynchronizing(const std::string& s) {
    for (const char* t : kSelfSynchronizing) {
      if (s.find(t) != std::string::npos) return true;
    }
    return false;
  }

  static bool isHotPath(const std::string& path) {
    for (const char* f : kHotPathFiles) {
      if (path.find(f) != std::string::npos) return true;
    }
    return false;
  }

  bool castIsGuarded(const FileText& file, std::size_t li) const {
    // Look back a window (the usual shape: check, then cast) and slightly
    // ahead (checking the casted value on the next line is also fine).
    const std::size_t lo = li >= kCastWindow ? li - kCastWindow : 0;
    const std::size_t hi = std::min(file.code.size() - 1, li + 2);
    for (std::size_t j = lo; j <= hi; ++j) {
      if (std::regex_search(file.code[j], kCastGuard)) return true;
    }
    return false;
  }

  void add(const FileText& file, std::size_t lineIndex, const char* rule,
           const char* name, std::string message, std::string fix) {
    Finding f;
    f.rule = rule;
    f.name = name;
    f.path = file.path;
    f.line = lineIndex + 1;
    f.message = std::move(message);
    f.fix = std::move(fix);
    f.lineText = trim(file.raw[lineIndex]);
    findings_.push_back(std::move(f));
  }

  std::vector<Finding> findings_;
  std::size_t filesScanned_ = 0;
  std::size_t escapeHatches_ = 0;
  static constexpr std::size_t kCastWindow = 14;
};

// ---------------------------------------------------------------------------

std::vector<Suppression> loadSuppressions(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fpsm_lint: cannot open suppressions file: " << path << "\n";
    std::exit(2);
  }
  std::vector<Suppression> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ss(t);
    Suppression s;
    ss >> s.rule >> s.pathSuffix;
    std::getline(ss, s.substring);
    s.substring = trim(s.substring);
    if (s.rule.empty() || s.pathSuffix.empty()) {
      std::cerr << "fpsm_lint: malformed suppression line: " << t << "\n";
      std::exit(2);
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool suppressed(const Finding& f, const std::vector<Suppression>& sups) {
  for (const Suppression& s : sups) {
    if (s.rule != f.rule) continue;
    if (!endsWith(f.path, s.pathSuffix)) continue;
    if (!s.substring.empty() &&
        f.lineText.find(s.substring) == std::string::npos) {
      continue;
    }
    s.used = true;
    return true;
  }
  return false;
}

void listRules() {
  std::cout
      << "R001 raw-sync-primitive    std sync primitive outside src/util/\n"
      << "R002 raw-thread            std::thread outside src/util/\n"
      << "R003 raw-array-new         raw new[] outside src/util/\n"
      << "R004 hot-path-lock         lock token in scoring kernels\n"
      << "R005 unchecked-artifact-cast  unguarded narrowing cast in "
         "src/artifact/\n"
      << "R006 unannotated-guarded-field  unguarded field in Mutex-holding "
         "class\n"
      << "R007 unannotated-public-method  unannotated public method on "
         "Mutex-holding class\n"
      << "R008 metric-site-side-effect  clock/lock/allocation on a "
         "metric-update line outside src/obs/\n";
}

int usage() {
  std::cerr << "usage: fpsm_lint [--suppressions FILE] "
               "[--print-suppressions] [--list-rules] PATH...\n"
               "Scans .h/.cpp files under each PATH for fuzzyPSM project "
               "invariants.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string suppressionsPath;
  bool printSuppressions = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--suppressions") {
      if (++i >= argc) return usage();
      suppressionsPath = argv[i];
    } else if (arg == "--print-suppressions") {
      printSuppressions = true;
    } else if (arg == "--list-rules") {
      listRules();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) return usage();

  std::vector<Suppression> sups;
  if (!suppressionsPath.empty()) sups = loadSuppressions(suppressionsPath);

  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string f = entry.path().generic_string();
        if (endsWith(f, ".h") || endsWith(f, ".cpp")) files.push_back(f);
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      std::cerr << "fpsm_lint: no such path: " << p << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  Linter linter;
  for (const std::string& f : files) {
    std::ifstream in(f);
    if (!in) {
      std::cerr << "fpsm_lint: cannot read " << f << "\n";
      return 2;
    }
    FileText text;
    text.path = f;
    std::string line;
    while (std::getline(in, line)) text.raw.push_back(line);
    text.code = stripCode(text.raw);
    linter.scanFile(text);
  }

  std::vector<const Finding*> active;
  for (const Finding& f : linter.findings_) {
    if (!suppressed(f, sups)) active.push_back(&f);
  }

  if (printSuppressions) {
    std::cout << "# fpsm_lint suppressions for current findings — paste the\n"
                 "# lines you can justify, with a rationale comment above "
                 "each.\n";
    for (const Finding* f : active) {
      // Suffix the path at the src/-relative level so entries survive
      // checkouts rooted anywhere.
      std::string suffix = f->path;
      const std::size_t at = suffix.rfind("src/");
      if (at != std::string::npos) suffix = suffix.substr(at + 4);
      std::cout << f->rule << " " << suffix << " " << f->lineText << "\n";
    }
    return active.empty() ? 0 : 1;
  }

  for (const Finding* f : active) {
    std::cout << f->path << ":" << f->line << ": [" << f->rule << " "
              << f->name << "] " << f->message << "\n"
              << "  line: " << f->lineText << "\n"
              << "  fix:  " << f->fix << "\n";
  }
  for (const Suppression& s : sups) {
    if (!s.used) {
      std::cout << "fpsm_lint: warning: unused suppression: " << s.rule << " "
                << s.pathSuffix
                << (s.substring.empty() ? "" : " " + s.substring) << "\n";
    }
  }
  if (active.empty()) {
    std::cout << "fpsm_lint: clean (" << linter.filesScanned_ << " files, "
              << (linter.findings_.size() - active.size())
              << " suppressed, " << linter.escapeHatches_
              << " analysis escape hatches)\n";
    return 0;
  }
  std::cout << "fpsm_lint: " << active.size() << " finding(s) in "
            << linter.filesScanned_ << " file(s)\n";
  return 1;
}
