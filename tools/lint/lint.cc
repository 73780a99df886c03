#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "lint/graph.h"

namespace wpred::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

struct FileContext {
  std::string root;      // "src", "tools", "bench", "tests", "fuzz", "examples"
  std::string module;    // src submodule ("ml", "linalg", ...); "" otherwise
  std::string filename;  // last path component
};

const std::set<std::string>& KnownRoots() {
  static const std::set<std::string> roots = {"src",   "tools",    "bench",
                                              "tests", "examples", "fuzz"};
  return roots;
}

FileContext ClassifyPath(const std::string& path) {
  FileContext ctx;
  std::vector<std::string> parts;
  std::string part;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) parts.push_back(part);
      part.clear();
    } else {
      part.push_back(c);
    }
  }
  if (!part.empty()) parts.push_back(part);
  if (!parts.empty()) ctx.filename = parts.back();
  for (size_t i = 0; i < parts.size(); ++i) {
    if (KnownRoots().count(parts[i])) {
      ctx.root = parts[i];
      // src/<module>/<...>/file — a lone src/file has no module.
      if (ctx.root == "src" && i + 2 < parts.size()) ctx.module = parts[i + 1];
      break;
    }
  }
  return ctx;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* name;
  const char* description;
};

constexpr std::array<RuleInfo, 11> kRules = {{
    {"nondeterminism",
     "wall-clock / libc-rand / random_device use outside common/rng breaks "
     "bit-reproducible runs"},
    {"unordered-container",
     "std::unordered_{map,set} in ordered-output layers (linalg, ml, "
     "similarity, featsel, predict) makes iteration order leak into results"},
    {"raw-float",
     "the numeric kernel is double-only; float narrows silently and splits "
     "reproducibility across build flags"},
    {"io-in-library",
     "stdout/stderr writes in library code outside obs/ and common/; report "
     "through Status or the obs layer instead"},
    {"nodiscard-status",
     "Status and Result<T> in common/status.h must stay class-level "
     "[[nodiscard]] so dropped errors warn at every call site"},
    {"bare-discard",
     "a (void)/static_cast<void> discard needs a same-line comment saying "
     "why the value is safe to drop"},
    {"layering",
     "module includes must follow the dependency DAG (common depends on "
     "nothing, obs is leaf-only on common, no cycles)"},
    {"guarded-field",
     "a field marked WPRED_GUARDED_BY(mu) may only be touched in scopes "
     "that hold mu (MutexLock, mu.Lock(), or a WPRED_REQUIRES(mu) method)"},
    {"atomics-order",
     "every atomic load/store/fetch_*/compare_exchange_* must name an "
     "explicit std::memory_order; no standalone fences; relaxed on a "
     "WPRED_ATOMIC_PUBLISHED atomic needs a rationale suppression"},
    {"include-graph",
     "whole-tree include DAG: no cycles, no transitive reach outside a "
     "module's layering closure, no header that nothing includes"},
    {"bare-suppression",
     "every wpred-lint: allow(...) must name known rules and carry a "
     "trailing ': rationale' explaining why the violation is safe"},
}};

// Modules whose outputs are ordered numeric artifacts (tables, rankings,
// distance matrices): the unordered-container and raw-float rules bite here.
const std::set<std::string>& NumericModules() {
  static const std::set<std::string> modules = {"linalg", "ml",     "similarity",
                                                "featsel", "predict", "stream"};
  return modules;
}

// Identifiers that are nondeterministic however they are used.
const std::set<std::string>& NondetIdentifiers() {
  static const std::set<std::string> idents = {
      "srand",         "rand_r",       "drand48",
      "lrand48",       "mrand48",      "random_device",
      "system_clock",  "high_resolution_clock",
      "gettimeofday",  "localtime",    "gmtime",
      "ctime",         "asctime",      "clock_gettime",
  };
  return idents;
}

// Identifiers that are only nondeterministic as a call (so `steady_clock`
// stays fine but `time(nullptr)` is caught).
const std::set<std::string>& NondetCallIdentifiers() {
  static const std::set<std::string> idents = {"rand", "time", "clock",
                                               "random"};
  return idents;
}

const std::set<std::string>& UnorderedContainerIdentifiers() {
  static const std::set<std::string> idents = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return idents;
}

const std::set<std::string>& IoIdentifiers() {
  static const std::set<std::string> idents = {
      "printf", "fprintf", "vprintf", "vfprintf", "puts",  "fputs",
      "putchar", "cout",   "cerr",    "clog",     "scanf", "fscanf",
      "getchar"};
  return idents;
}

// Yields each identifier token in `code` with its start offset.
template <typename Fn>
void ForEachIdentifier(const std::string& code, Fn&& fn) {
  size_t i = 0;
  const size_t n = code.size();
  while (i < n) {
    if (IsIdentChar(code[i])) {
      const size_t start = i;
      while (i < n && IsIdentChar(code[i])) ++i;
      if (!std::isdigit(static_cast<unsigned char>(code[start]))) {
        fn(code.substr(start, i - start), start, i);
      }
    } else {
      ++i;
    }
  }
}

bool NextNonSpaceIsParen(const std::string& code, size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos]))) {
    ++pos;
  }
  return pos < code.size() && code[pos] == '(';
}

bool Suppressed(const internal::CodeLine& line, const std::string& rule) {
  return std::find(line.suppressed.begin(), line.suppressed.end(), rule) !=
         line.suppressed.end();
}

class RuleRunner {
 public:
  RuleRunner(const std::string& path, std::vector<Diagnostic>* out)
      : path_(path), ctx_(ClassifyPath(path)), out_(out) {}

  void Run(const std::vector<internal::CodeLine>& lines) {
    for (size_t i = 0; i < lines.size(); ++i) {
      const int line_no = static_cast<int>(i) + 1;
      const internal::CodeLine& line = lines[i];
      CheckNondeterminism(line, line_no);
      CheckUnorderedContainer(line, line_no);
      CheckRawFloat(line, line_no);
      CheckIoInLibrary(line, line_no);
      CheckNodiscardStatus(line, line_no);
      CheckBareDiscard(line, line_no);
      CheckLayering(line, line_no);
      CheckBareSuppression(line, line_no);
    }
  }

 private:
  void Report(int line, const std::string& rule, const std::string& message) {
    out_->push_back({path_, line, rule, message});
  }

  bool InLintedTree() const {
    return ctx_.root == "src" || ctx_.root == "tools" || ctx_.root == "bench";
  }

  bool IsRngImplementation() const {
    return ctx_.root == "src" && ctx_.module == "common" &&
           ctx_.filename.rfind("rng.", 0) == 0;
  }

  void CheckNondeterminism(const internal::CodeLine& line, int line_no) {
    if (!InLintedTree() || IsRngImplementation()) return;
    if (Suppressed(line, "nondeterminism")) return;
    ForEachIdentifier(line.code, [&](const std::string& ident, size_t /*s*/,
                                     size_t end) {
      if (NondetIdentifiers().count(ident) ||
          (NondetCallIdentifiers().count(ident) &&
           NextNonSpaceIsParen(line.code, end))) {
        Report(line_no, "nondeterminism",
               "'" + ident +
                   "' is a nondeterminism source; route randomness through "
                   "common/rng and timing through steady_clock");
      }
    });
  }

  void CheckUnorderedContainer(const internal::CodeLine& line, int line_no) {
    if (ctx_.root != "src" || !NumericModules().count(ctx_.module)) return;
    if (Suppressed(line, "unordered-container")) return;
    ForEachIdentifier(
        line.code, [&](const std::string& ident, size_t, size_t) {
          if (UnorderedContainerIdentifiers().count(ident)) {
            Report(line_no, "unordered-container",
                   "'" + ident + "' in " + ctx_.module +
                       "/ — iteration order would feed ordered numeric "
                       "output; use std::map or a sorted vector");
          }
        });
  }

  void CheckRawFloat(const internal::CodeLine& line, int line_no) {
    if (ctx_.root != "src" || !NumericModules().count(ctx_.module)) return;
    if (Suppressed(line, "raw-float")) return;
    ForEachIdentifier(line.code,
                      [&](const std::string& ident, size_t, size_t) {
                        if (ident == "float") {
                          Report(line_no, "raw-float",
                                 "raw 'float' in the numeric kernel; wpred "
                                 "numerics are double end-to-end");
                        }
                      });
  }

  void CheckIoInLibrary(const internal::CodeLine& line, int line_no) {
    if (ctx_.root != "src" || ctx_.module == "obs" || ctx_.module == "common") {
      return;
    }
    if (Suppressed(line, "io-in-library")) return;
    ForEachIdentifier(
        line.code, [&](const std::string& ident, size_t, size_t) {
          if (IoIdentifiers().count(ident)) {
            Report(line_no, "io-in-library",
                   "'" + ident + "' in library module " + ctx_.module +
                       "/ — libraries stay quiet; return Status or record "
                       "through obs");
          }
        });
  }

  void CheckNodiscardStatus(const internal::CodeLine& line, int line_no) {
    if (ctx_.root != "src" || ctx_.module != "common" ||
        ctx_.filename != "status.h") {
      return;
    }
    if (Suppressed(line, "nodiscard-status")) return;
    bool has_class = false, has_target = false;
    std::string target;
    ForEachIdentifier(line.code,
                      [&](const std::string& ident, size_t, size_t) {
                        if (ident == "class") has_class = true;
                        if (ident == "Status" || ident == "Result") {
                          has_target = true;
                          target = ident;
                        }
                      });
    if (has_class && has_target &&
        line.code.find('{') != std::string::npos &&
        line.code.find("nodiscard") == std::string::npos &&
        line.code.find("enum") == std::string::npos) {
      Report(line_no, "nodiscard-status",
             "class " + target +
                 " must be declared [[nodiscard]] so dropped errors warn at "
                 "every call site");
    }
  }

  void CheckBareDiscard(const internal::CodeLine& line, int line_no) {
    if (!InLintedTree()) return;
    if (Suppressed(line, "bare-discard")) return;
    size_t pos = line.code.find("(void)");
    bool discard = false;
    if (pos != std::string::npos) {
      size_t after = pos + 6;
      while (after < line.code.size() &&
             std::isspace(static_cast<unsigned char>(line.code[after]))) {
        ++after;
      }
      // `(void)` followed by an expression is a discard; `f(void)` in a
      // C-style signature is followed by `)` or `;`.
      if (after < line.code.size() &&
          (IsIdentChar(line.code[after]) || line.code[after] == '(' ||
           line.code[after] == '*' || line.code[after] == ':')) {
        discard = true;
      }
    }
    if (line.code.find("static_cast<void>(") != std::string::npos) {
      discard = true;
    }
    if (discard && !line.has_comment) {
      Report(line_no, "bare-discard",
             "discarded value without a comment; write `(void)expr;  // "
             "reason` so the intent is auditable");
    }
  }

  void CheckLayering(const internal::CodeLine& line, int line_no) {
    if (ctx_.root != "src") return;
    if (Suppressed(line, "layering")) return;
    const std::string target = internal::LocalIncludeTarget(line.raw);
    if (target.empty()) return;
    const size_t slash = target.find('/');
    if (slash == std::string::npos) return;  // same-directory include
    const std::string target_module = target.substr(0, slash);
    if (!internal::LayerDag().count(target_module)) {
      if (KnownRoots().count(target_module)) {
        Report(line_no, "layering",
               "src/ must not include from " + target_module + "/");
      }
      return;
    }
    auto it = internal::LayerDag().find(ctx_.module);
    if (it == internal::LayerDag().end()) {
      return;  // unknown module: no layering rules
    }
    if (!it->second.count(target_module)) {
      Report(line_no, "layering",
             ctx_.module + "/ must not depend on " + target_module +
                 "/ (allowed: see src/CMakeLists.txt link graph)");
    }
  }

  // The linter's own sources document the suppression syntax in comments and
  // embed seeded-violation corpora as string literals; auditing them would
  // flag the documentation itself.
  bool IsLintImplementation() const {
    return ctx_.root == "tools" && path_.find("lint") != std::string::npos;
  }

  void CheckBareSuppression(const internal::CodeLine& line, int line_no) {
    if (!InLintedTree() || IsLintImplementation()) return;
    if (!line.has_comment) return;
    if (Suppressed(line, "bare-suppression")) return;
    const std::string& raw = line.raw;
    size_t pos = 0;
    while ((pos = raw.find("wpred-lint:", pos)) != std::string::npos) {
      const size_t open = raw.find("allow(", pos);
      if (open == std::string::npos) break;
      const size_t close = raw.find(')', open);
      if (close == std::string::npos) break;
      std::string item;
      std::istringstream list(raw.substr(open + 6, close - open - 6));
      while (std::getline(list, item, ',')) {
        item = Trim(item);
        if (!item.empty() && RuleDescription(item).empty()) {
          Report(line_no, "bare-suppression",
                 "suppression names unknown rule '" + item +
                     "'; see --list-rules for the rule set");
        }
      }
      // After the rule list the suppression must justify itself:
      // `: <rationale>` with non-empty text.
      size_t after = close + 1;
      while (after < raw.size() &&
             std::isspace(static_cast<unsigned char>(raw[after]))) {
        ++after;
      }
      bool has_rationale = false;
      if (after < raw.size() && raw[after] == ':') {
        ++after;
        while (after < raw.size() &&
               std::isspace(static_cast<unsigned char>(raw[after]))) {
          ++after;
        }
        has_rationale = after < raw.size();
      }
      if (!has_rationale) {
        Report(line_no, "bare-suppression",
               "suppression without rationale; a reader must not have to "
               "reconstruct why the violation is safe");
      }
      pos = close;
    }
  }

  std::string path_;
  FileContext ctx_;
  std::vector<Diagnostic>* out_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

namespace internal {
namespace {

// Pulls every `wpred-lint: allow(a, b)` rule list out of a comment.
std::vector<std::string> ParseSuppressions(const std::string& comment) {
  std::vector<std::string> rules;
  size_t pos = 0;
  while ((pos = comment.find("wpred-lint:", pos)) != std::string::npos) {
    size_t open = comment.find("allow(", pos);
    if (open == std::string::npos) break;
    size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string list = comment.substr(open + 6, close - open - 6);
    std::string item;
    std::istringstream stream(list);
    while (std::getline(stream, item, ',')) {
      item = Trim(item);
      if (!item.empty()) rules.push_back(item);
    }
    pos = close;
  }
  return rules;
}

}  // namespace

std::vector<CodeLine> Tokenize(const std::string& content) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };

  std::vector<CodeLine> lines;
  CodeLine current;
  std::string comment_text;  // comment content on the current line
  State state = State::kCode;
  std::string raw_delim;  // raw string closing delimiter ")delim"

  auto end_line = [&]() {
    current.suppressed = ParseSuppressions(comment_text);
    // A `//` comment whose line ends in a backslash splices the next line
    // into the comment; without this the continuation leaks into `code`.
    const bool comment_continues = state == State::kLineComment &&
                                   !current.raw.empty() &&
                                   current.raw.back() == '\\';
    lines.push_back(current);
    current = CodeLine();
    comment_text.clear();
    if (state == State::kLineComment) {
      if (comment_continues) {
        current.has_comment = true;
      } else {
        state = State::kCode;
      }
    }
  };

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      end_line();
      continue;
    }
    current.raw.push_back(c);
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          current.has_comment = true;
          current.raw.push_back(next);
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          current.has_comment = true;
          current.raw.push_back(next);
          ++i;
          current.code.append("  ");
        } else if (c == '"') {
          // Raw string? The prefix directly before the quote must end in R
          // and form a complete encoding prefix (R, u8R, uR, UR, LR).
          const std::string& code = current.code;
          bool raw = false;
          if (!code.empty() && code.back() == 'R') {
            size_t start = code.size() - 1;
            while (start > 0 && IsIdentChar(code[start - 1])) --start;
            const std::string prefix = code.substr(start);
            raw = prefix == "R" || prefix == "u8R" || prefix == "uR" ||
                  prefix == "UR" || prefix == "LR";
          }
          if (raw) {
            std::string delim;
            size_t j = i + 1;
            while (j < n && content[j] != '(' && content[j] != '\n' &&
                   delim.size() <= 16) {
              delim.push_back(content[j]);
              ++j;
            }
            raw_delim = ")" + delim + "\"";
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          current.code.push_back('"');
        } else if (c == '\'') {
          // Digit separator (1'000'000) or char literal.
          if (!current.code.empty() &&
              std::isalnum(
                  static_cast<unsigned char>(current.code.back())) &&
              std::isalnum(static_cast<unsigned char>(next))) {
            current.code.push_back(c);  // numeric separator, stay in code
          } else {
            state = State::kChar;
            current.code.push_back('\'');
          }
        } else {
          current.code.push_back(c);
        }
        break;
      case State::kLineComment:
        comment_text.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          current.raw.push_back(next);
          ++i;
        } else {
          comment_text.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          current.raw.push_back(next);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          current.code.push_back('"');
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          current.raw.push_back(next);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current.code.push_back('\'');
        }
        break;
      case State::kRawString:
        if (c == raw_delim[0] &&
            content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 1; k < raw_delim.size(); ++k) {
            current.raw.push_back(content[i + k]);
          }
          i += raw_delim.size() - 1;
          current.code.push_back('"');
          state = State::kCode;
        }
        break;
    }
  }
  if (!current.raw.empty() || !comment_text.empty() || lines.empty()) {
    end_line();
  }

  // A comment-only line lends its suppressions to the following line, and a
  // statement that continues past the line break (code not ending in one of
  // `;{}`) carries them forward with it — so a suppression comment above a
  // wrapped statement covers every line the statement spans.
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].suppressed.empty()) continue;
    const std::string code = Trim(lines[i].code);
    const bool forwards = code.empty() || (code.back() != ';' &&
                                           code.back() != '{' &&
                                           code.back() != '}');
    if (forwards) {
      lines[i + 1].suppressed.insert(lines[i + 1].suppressed.end(),
                                     lines[i].suppressed.begin(),
                                     lines[i].suppressed.end());
    }
  }
  return lines;
}

bool ContainsIdentifier(const std::string& code, const std::string& ident) {
  bool found = false;
  ForEachIdentifier(code, [&](const std::string& token, size_t, size_t) {
    if (token == ident) found = true;
  });
  return found;
}

// Extracts the target of a local include (`#include "x"`); empty if the line
// is not one. Works on the raw line because the tokenizer blanks string
// literal bodies in `code`.
std::string LocalIncludeTarget(const std::string& raw_line) {
  const std::string trimmed = Trim(raw_line);
  if (trimmed.empty() || trimmed[0] != '#') return "";
  size_t pos = trimmed.find("include", 1);
  if (pos == std::string::npos) return "";
  pos = trimmed.find('"', pos);
  if (pos == std::string::npos) return "";
  const size_t end = trimmed.find('"', pos + 1);
  if (end == std::string::npos) return "";
  return trimmed.substr(pos + 1, end - pos - 1);
}

// Allowed include targets per src module. Mirrors src/CMakeLists.txt's link
// graph; wpred_lint is the enforcement teeth for that comment.
const std::map<std::string, std::set<std::string>>& LayerDag() {
  static const std::map<std::string, std::set<std::string>> dag = {
      {"common", {"common"}},
      {"obs", {"obs", "common"}},
      {"linalg", {"linalg", "common"}},
      {"telemetry", {"telemetry", "linalg", "common"}},
      {"sim", {"sim", "telemetry", "obs", "linalg", "common"}},
      {"ml", {"ml", "linalg", "obs", "common"}},
      {"featsel", {"featsel", "ml", "telemetry", "obs", "linalg", "common"}},
      {"similarity", {"similarity", "linalg", "telemetry", "obs", "common"}},
      {"predict", {"predict", "ml", "telemetry", "obs", "linalg", "common"}},
      {"core",
       {"core", "sim", "featsel", "similarity", "predict", "telemetry", "ml",
        "obs", "linalg", "common"}},
      // Streaming ingestion sits beside core: windows and online detectors
      // reuse similarity/ml/telemetry primitives and core configs, but stream
      // only *exposes* refit hooks — it never includes serve/, and nothing
      // below serve/ may depend on those hooks being connected.
      {"stream",
       {"stream", "core", "similarity", "ml", "telemetry", "obs", "linalg",
        "common"}},
      // Serving sits on top of the read-side API: it may reach core (and the
      // layers core re-exports transitively via its headers is NOT a licence
      // to include them directly), stream (serve/stream_refit.h is the one
      // sanctioned bridge to the refit hooks), obs, and common. Nothing
      // inside src/ may include serve/ — only bench, tests, and tools
      // consume it.
      {"serve", {"serve", "stream", "core", "obs", "common"}},
  };
  return dag;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Concurrency analysis: guarded-field and atomics-order
// ---------------------------------------------------------------------------
//
// Both passes run over a flat token stream (identifiers, numbers,
// punctuation; `::` and `->` fused) built from the sanitized lines, so a
// statement wrapped across lines analyses the same as a one-liner. This is
// still not a parser: class membership, lock scopes, and field resolution
// use the bracket structure plus a handful of conventions the tree actually
// follows, and every heuristic errs toward silence (a field it cannot
// resolve to a unique class is skipped, not guessed).

namespace {

struct Tok {
  std::string text;
  int line = 0;  // 1-based
  char kind = 'p';  // 'i' identifier, 'n' number, 'p' punctuation
};

std::vector<Tok> TokenStream(const std::vector<internal::CodeLine>& lines) {
  std::vector<Tok> toks;
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    const int line_no = static_cast<int>(li) + 1;
    size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (IsIdentChar(c) && !std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < code.size() && IsIdentChar(code[j])) ++j;
        toks.push_back({code.substr(i, j - i), line_no, 'i'});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < code.size() && (IsIdentChar(code[j]) || code[j] == '.')) {
          ++j;
        }
        toks.push_back({code.substr(i, j - i), line_no, 'n'});
        i = j;
      } else if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
        toks.push_back({"::", line_no, 'p'});
        i += 2;
      } else if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        toks.push_back({"->", line_no, 'p'});
        i += 2;
      } else {
        toks.push_back({std::string(1, c), line_no, 'p'});
        ++i;
      }
    }
  }
  return toks;
}

// Index of the matching close for the open bracket at `open`; toks.size()
// when unbalanced. `open_ch`/`close_ch` are single-char bracket tokens.
size_t MatchForward(const std::vector<Tok>& toks, size_t open,
                    const std::string& open_ch, const std::string& close_ch) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_ch) ++depth;
    if (toks[i].text == close_ch && --depth == 0) return i;
  }
  return toks.size();
}

// Index of the identifier naming the declarator that ends just before
// `pos` — walks back over one `[...]` group (array declarators); npos-like
// toks.size() when there is none.
size_t DeclaratorIdentBefore(const std::vector<Tok>& toks, size_t pos) {
  size_t i = pos;
  if (i == 0) return toks.size();
  --i;
  if (toks[i].text == "]") {
    int depth = 0;
    while (true) {
      if (toks[i].text == "]") ++depth;
      if (toks[i].text == "[" && --depth == 0) break;
      if (i == 0) return toks.size();
      --i;
    }
    if (i == 0) return toks.size();
    --i;
  }
  return toks[i].kind == 'i' ? i : toks.size();
}

const std::set<std::string>& AnnotationMacros() {
  static const std::set<std::string> macros = {
      "WPRED_GUARDED_BY",   "WPRED_PT_GUARDED_BY", "WPRED_ATOMIC_PUBLISHED",
      "WPRED_REQUIRES",     "WPRED_ACQUIRE",       "WPRED_RELEASE",
      "WPRED_TRY_ACQUIRE",  "WPRED_EXCLUDES",      "WPRED_CAPABILITY",
      "WPRED_SCOPED_CAPABILITY"};
  return macros;
}

// Concurrency contracts collected from declarations (headers, mostly):
// which fields are guarded by which mutex, which methods require one held,
// and which atomics publish data.
struct ConcurrencyTables {
  // (class, field) -> mutex named in WPRED_GUARDED_BY.
  std::map<std::pair<std::string, std::string>, std::string> guarded;
  // field -> classes declaring a guarded field of that name (for resolving
  // accesses with no class context; ambiguous names are skipped).
  std::map<std::string, std::set<std::string>> field_classes;
  // (class, method) -> mutexes in WPRED_REQUIRES.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      requires_held;
  // Fields marked WPRED_ATOMIC_PUBLISHED (relaxed ops on them need a
  // rationale suppression).
  std::set<std::string> published;
};

// One class (or struct) scope on the nesting stack.
struct ClassScope {
  std::string name;
  int brace_depth = 0;  // depth at which its `{` sits
};

// Walks the token stream recording annotation declarations. Only class
// scopes matter: WPRED_GUARDED_BY / WPRED_ATOMIC_PUBLISHED annotate the
// field declared directly before them, WPRED_REQUIRES annotates the method
// whose parameter list closes directly before it.
void CollectConcurrency(const std::vector<Tok>& toks,
                        ConcurrencyTables* tables) {
  std::vector<ClassScope> classes;
  int depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& tok = toks[i];
    if (tok.text == "{") {
      ++depth;
      continue;
    }
    if (tok.text == "}") {
      --depth;
      while (!classes.empty() && classes.back().brace_depth > depth) {
        classes.pop_back();
      }
      continue;
    }
    if (tok.kind != 'i') continue;
    if ((tok.text == "class" || tok.text == "struct") &&
        (i == 0 || toks[i - 1].text != "enum")) {
      // Scan ahead for the class-head name: the last identifier before the
      // body `{`, base-clause `:`, or `;` (forward declaration) — skipping
      // attribute macros' `(...)` arguments and `[[...]]` attributes.
      std::string name;
      size_t j = i + 1;
      while (j < toks.size()) {
        const std::string& t = toks[j].text;
        if (t == "(") {
          j = MatchForward(toks, j, "(", ")") + 1;
          continue;
        }
        if (t == "[") {
          j = MatchForward(toks, j, "[", "]") + 1;
          continue;
        }
        if (t == "{" || t == ":" || t == ";" || t == "<") break;
        if (toks[j].kind == 'i' && t != "final" && t != "alignas" &&
            !AnnotationMacros().count(t)) {
          name = t;
        }
        ++j;
      }
      // Template intro or specialisation (`<`) — out of scope, skip; a
      // forward declaration (`;`) opens no scope either.
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{" && !name.empty()) {
        classes.push_back({name, depth + 1});
      }
      continue;
    }
    if (classes.empty()) continue;
    const std::string& cls = classes.back().name;
    if (tok.text == "WPRED_GUARDED_BY" || tok.text == "WPRED_PT_GUARDED_BY") {
      const size_t field = DeclaratorIdentBefore(toks, i);
      if (field == toks.size()) continue;
      std::string mutex_name;
      if (i + 1 < toks.size() && toks[i + 1].text == "(") {
        const size_t close = MatchForward(toks, i + 1, "(", ")");
        for (size_t k = i + 2; k < close; ++k) {
          if (toks[k].kind == 'i') {
            mutex_name = toks[k].text;
            break;
          }
        }
      }
      if (mutex_name.empty()) continue;
      tables->guarded[{cls, toks[field].text}] = mutex_name;
      tables->field_classes[toks[field].text].insert(cls);
    } else if (tok.text == "WPRED_ATOMIC_PUBLISHED") {
      const size_t field = DeclaratorIdentBefore(toks, i);
      if (field != toks.size()) tables->published.insert(toks[field].text);
    } else if (tok.text == "WPRED_REQUIRES") {
      // ... Ret Name ( params ) [const] [noexcept] WPRED_REQUIRES(mu, ...)
      size_t j = i;
      std::vector<std::string> mutexes;
      if (i + 1 < toks.size() && toks[i + 1].text == "(") {
        const size_t close = MatchForward(toks, i + 1, "(", ")");
        for (size_t k = i + 2; k < close; ++k) {
          if (toks[k].kind == 'i') mutexes.push_back(toks[k].text);
        }
      }
      if (mutexes.empty()) continue;
      while (j > 0) {
        --j;
        const std::string& t = toks[j].text;
        if (t == "const" || t == "noexcept" || t == "override" ||
            t == "final") {
          continue;
        }
        if (t == ")") {
          int d = 0;
          while (j > 0) {
            if (toks[j].text == ")") ++d;
            if (toks[j].text == "(" && --d == 0) break;
            --j;
          }
          continue;
        }
        break;
      }
      if (toks[j].kind == 'i') {
        tables->requires_held[{cls, toks[j].text}] = mutexes;
      }
    }
  }
}

// After a candidate definition's parameter list (close paren at `close`),
// finds the body `{`: skips cv/ref/noexcept qualifiers, annotation macros
// with their arguments, and a constructor's member-init list. Returns
// toks.size() for declarations, initializer calls, `= default`, etc.
size_t FindBodyBrace(const std::vector<Tok>& toks, size_t close) {
  size_t j = close + 1;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == ";" || t == "=") return toks.size();
    if (t == "{") return j;
    if (t == "(") {
      j = MatchForward(toks, j, "(", ")") + 1;
      continue;
    }
    if (t == ":") {
      // Member-init list: `name(...)` / `name{...}` groups; the body brace
      // is the first `{` not directly after an identifier or `>`.
      ++j;
      while (j < toks.size()) {
        const std::string& u = toks[j].text;
        if (u == "(") {
          j = MatchForward(toks, j, "(", ")") + 1;
          continue;
        }
        if (u == "{") {
          if (j > 0 && (toks[j - 1].kind == 'i' || toks[j - 1].text == ">")) {
            j = MatchForward(toks, j, "{", "}") + 1;
            continue;
          }
          return j;
        }
        if (u == ";") return toks.size();
        ++j;
      }
      return toks.size();
    }
    if (toks[j].kind == 'i' || t == "," || t == "&" || t == "*" ||
        t == "::" || t == "->" || t == "<" || t == ">") {
      ++j;
      continue;
    }
    return toks.size();
  }
  return toks.size();
}

const std::set<std::string>& AtomicOps() {
  static const std::set<std::string> ops = {
      "load",      "store",     "exchange",  "fetch_add",
      "fetch_sub", "fetch_and", "fetch_or",  "fetch_xor",
      "compare_exchange_strong", "compare_exchange_weak"};
  return ops;
}

const std::set<std::string>& LockHolderTypes() {
  static const std::set<std::string> types = {"MutexLock", "lock_guard",
                                              "unique_lock", "scoped_lock"};
  return types;
}

// Guarded-field and atomics-order over one file's token stream, with the
// (possibly whole-program) declaration tables. `lines` is the same
// tokenization the stream was built from — used for suppression lookups.
void CheckConcurrency(const std::string& path, const FileContext& ctx,
                      const std::vector<internal::CodeLine>& lines,
                      const std::vector<Tok>& toks,
                      const ConcurrencyTables& tables,
                      std::vector<Diagnostic>* out) {
  const bool in_linted_tree =
      ctx.root == "src" || ctx.root == "tools" || ctx.root == "bench";
  if (!in_linted_tree) return;

  auto suppressed_at = [&](int line, const char* rule) {
    return line >= 1 && line <= static_cast<int>(lines.size()) &&
           Suppressed(lines[line - 1], rule);
  };
  auto report = [&](int line, const char* rule, const std::string& message) {
    if (!suppressed_at(line, rule)) out->push_back({path, line, rule, message});
  };

  struct Held {
    std::string mutex;
    int depth;
  };
  struct ActiveFn {
    int body_depth = -1;  // < 0: no function body active
    std::string cls;
    bool exempt = false;  // constructor/destructor: Clang's analysis and
                          // ours both treat the object as thread-private
  };
  std::vector<Held> held;
  std::vector<ClassScope> classes;
  ActiveFn fn;
  int depth = 0;
  size_t pending_body = toks.size();
  ActiveFn pending;
  std::vector<std::string> pending_requires;

  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    const Tok& tok = toks[i];
    if (i == pending_body) {
      fn = pending;
      fn.body_depth = depth + 1;
      for (const std::string& m : pending_requires) {
        held.push_back({m, depth + 1});
      }
      pending_body = n;
      pending_requires.clear();
    }
    if (tok.text == "{") {
      ++depth;
      continue;
    }
    if (tok.text == "}") {
      --depth;
      while (!classes.empty() && classes.back().brace_depth > depth) {
        classes.pop_back();
      }
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      if (fn.body_depth >= 0 && fn.body_depth > depth) fn = ActiveFn();
      continue;
    }
    if (tok.kind != 'i') continue;

    // Class scopes (mirrors CollectConcurrency).
    if ((tok.text == "class" || tok.text == "struct") &&
        (i == 0 || toks[i - 1].text != "enum")) {
      std::string name;
      size_t j = i + 1;
      while (j < n) {
        const std::string& t = toks[j].text;
        if (t == "(") {
          j = MatchForward(toks, j, "(", ")") + 1;
          continue;
        }
        if (t == "[") {
          j = MatchForward(toks, j, "[", "]") + 1;
          continue;
        }
        if (t == "{" || t == ":" || t == ";" || t == "<") break;
        if (toks[j].kind == 'i' && t != "final" && t != "alignas" &&
            !AnnotationMacros().count(t)) {
          name = t;
        }
        ++j;
      }
      while (j < n && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j < n && toks[j].text == "{" && !name.empty()) {
        classes.push_back({name, depth + 1});
      }
      continue;
    }

    // Method definitions, in-class (`Name(...) ... {`) and out-of-class
    // (`Class::Name(...) ... {`): establish the class context, the
    // ctor/dtor exemption, and any WPRED_REQUIRES-held mutexes.
    if (pending_body == n && fn.body_depth < 0) {
      if (!classes.empty() && i + 1 < n && toks[i + 1].text == "(" &&
          !AnnotationMacros().count(tok.text) &&
          !LockHolderTypes().count(tok.text)) {
        const size_t close = MatchForward(toks, i + 1, "(", ")");
        const size_t body = FindBodyBrace(toks, close);
        if (body != n) {
          pending_body = body;
          pending.cls = classes.back().name;
          pending.exempt = tok.text == classes.back().name ||
                           (i > 0 && toks[i - 1].text == "~");
          auto it = tables.requires_held.find({pending.cls, tok.text});
          if (it != tables.requires_held.end()) pending_requires = it->second;
        }
      } else if (classes.empty() && tok.text != "operator" && i + 2 < n &&
                 toks[i + 1].text == "::") {
        size_t m = i + 2;
        bool dtor = false;
        if (m < n && toks[m].text == "~") {
          dtor = true;
          ++m;
        }
        if (m + 1 < n && toks[m].kind == 'i' && toks[m + 1].text == "(") {
          const size_t close = MatchForward(toks, m + 1, "(", ")");
          const size_t body = FindBodyBrace(toks, close);
          if (body != n) {
            pending_body = body;
            pending.cls = tok.text;
            pending.exempt = dtor || toks[m].text == tok.text;
            auto it = tables.requires_held.find({pending.cls, toks[m].text});
            if (it != tables.requires_held.end()) {
              pending_requires = it->second;
            }
          }
        }
      }
    }

    // Lock acquisition / release.
    if (LockHolderTypes().count(tok.text)) {
      // `MutexLock lock(mu_);` / `std::lock_guard<std::mutex> l(m);` — the
      // lock lives until its block closes.
      size_t j = i + 1;
      int angle = 0;
      while (j < n) {
        const std::string& t = toks[j].text;
        if (t == "<") ++angle;
        else if (t == ">") --angle;
        else if (angle == 0 && (t == "(" || t == ";" || t == "{" || t == "}"))
          break;
        ++j;
      }
      if (j < n && toks[j].text == "(") {
        const size_t close = MatchForward(toks, j, "(", ")");
        std::string mutex_name;
        for (size_t k = j + 1; k < close; ++k) {
          if (toks[k].kind == 'i') mutex_name = toks[k].text;
        }
        if (!mutex_name.empty()) held.push_back({mutex_name, depth});
      }
      continue;
    }
    if ((tok.text == "Lock" || tok.text == "Unlock") && i > 0 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") && i + 1 < n &&
        toks[i + 1].text == "(") {
      const size_t obj = DeclaratorIdentBefore(toks, i - 1);
      if (obj != n) {
        if (tok.text == "Lock") {
          held.push_back({toks[obj].text, depth});
        } else {
          for (size_t k = held.size(); k-- > 0;) {
            if (held[k].mutex == toks[obj].text) {
              held.erase(held.begin() + static_cast<ptrdiff_t>(k));
              break;
            }
          }
        }
      }
      continue;
    }

    // --- atomics-order ---------------------------------------------------
    if (tok.text == "atomic_thread_fence") {
      report(tok.line, "atomics-order",
             "standalone atomic_thread_fence — attach the ordering to the "
             "operation that needs it");
    }
    if (AtomicOps().count(tok.text) && i > 0 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") && i + 1 < n &&
        toks[i + 1].text == "(") {
      const size_t close = MatchForward(toks, i + 1, "(", ")");
      bool has_order = false;
      bool relaxed = false;
      for (size_t k = i + 2; k < close; ++k) {
        if (toks[k].kind == 'i' &&
            toks[k].text.rfind("memory_order_", 0) == 0) {
          has_order = true;
          if (toks[k].text == "memory_order_relaxed") relaxed = true;
        }
      }
      const size_t obj = DeclaratorIdentBefore(toks, i - 1);
      const std::string object =
          obj != n ? toks[obj].text : std::string();
      if (!has_order) {
        report(tok.line, "atomics-order",
               "atomic '" + tok.text + "'" +
                   (object.empty() ? "" : " on '" + object + "'") +
                   " names no std::memory_order; sequential consistency "
                   "must be chosen, not defaulted into");
      } else if (relaxed && tables.published.count(object)) {
        report(tok.line, "atomics-order",
               "memory_order_relaxed on '" + object +
                   "', a WPRED_ATOMIC_PUBLISHED atomic — publication needs "
                   "release/acquire; if a single-writer invariant makes "
                   "relaxed safe here, suppress with the rationale");
      }
    }

    // --- guarded-field ---------------------------------------------------
    auto field_it = tables.field_classes.find(tok.text);
    if (field_it == tables.field_classes.end()) continue;
    // Declaration site: the annotation macro follows the declarator
    // (possibly after an array extent).
    size_t after = i + 1;
    if (after < n && toks[after].text == "[") {
      after = MatchForward(toks, after, "[", "]") + 1;
    }
    if (after < n && AnnotationMacros().count(toks[after].text)) continue;
    // Another object's member (`other.field_`) is that object's problem;
    // `this->field_` is ours.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        !(i > 1 && toks[i - 2].text == "this")) {
      continue;
    }
    // Call syntax: member-init `mu_()` in a ctor, or invoking a callable
    // field. The latter is a read this heuristic misses — a documented
    // soundness limit, not a licence.
    if (i + 1 < n && toks[i + 1].text == "(") continue;
    std::string cls;
    if (fn.body_depth >= 0) {
      cls = fn.cls;
    } else if (!classes.empty()) {
      cls = classes.back().name;
    }
    std::string mutex_name;
    if (!cls.empty()) {
      auto it = tables.guarded.find({cls, tok.text});
      // Known context without an entry: a same-named field of an
      // unannotated class — skip rather than guess.
      if (it == tables.guarded.end()) continue;
      mutex_name = it->second;
    } else {
      // No class context: resolve only when the field name is unique to
      // one annotated class tree-wide.
      if (field_it->second.size() != 1) continue;
      cls = *field_it->second.begin();
      auto it = tables.guarded.find({cls, tok.text});
      if (it == tables.guarded.end()) continue;
      mutex_name = it->second;
    }
    if (fn.body_depth >= 0 && fn.exempt) continue;
    bool is_held = false;
    for (const Held& h : held) {
      if (h.mutex == mutex_name) {
        is_held = true;
        break;
      }
    }
    if (!is_held) {
      report(tok.line, "guarded-field",
             "field '" + tok.text + "' of " + cls + " is WPRED_GUARDED_BY(" +
                 mutex_name + ") but " + mutex_name +
                 " is not held here (no MutexLock/Lock in scope and no "
                 "WPRED_REQUIRES on the enclosing method)");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<std::string> RuleNames() {
  std::vector<std::string> names;
  names.reserve(kRules.size());
  for (const RuleInfo& rule : kRules) names.emplace_back(rule.name);
  return names;
}

std::string RuleDescription(const std::string& rule) {
  for (const RuleInfo& info : kRules) {
    if (rule == info.name) return info.description;
  }
  return "";
}

namespace {

bool DiagnosticOrder(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

}  // namespace

std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& content) {
  std::vector<Diagnostic> diagnostics;
  const std::vector<internal::CodeLine> lines = internal::Tokenize(content);
  RuleRunner runner(path, &diagnostics);
  runner.Run(lines);
  const std::vector<Tok> toks = TokenStream(lines);
  ConcurrencyTables tables;
  CollectConcurrency(toks, &tables);
  CheckConcurrency(path, ClassifyPath(path), lines, toks, tables,
                   &diagnostics);
  std::stable_sort(diagnostics.begin(), diagnostics.end(), DiagnosticOrder);
  return diagnostics;
}

std::vector<Diagnostic> LintProgram(const std::vector<SourceFile>& files,
                                    const std::vector<SourceFile>& consumers,
                                    int threads,
                                    std::string* graph_json) {
  // Tokenize every file once and collect the tree-wide concurrency
  // declarations, so a .cc is checked against its header's contract.
  struct FileData {
    const SourceFile* file = nullptr;
    FileContext ctx;
    std::vector<internal::CodeLine> lines;
    std::vector<Tok> toks;
  };
  std::vector<FileData> data(files.size());
  ConcurrencyTables tables;
  for (size_t i = 0; i < files.size(); ++i) {
    data[i].file = &files[i];
    data[i].ctx = ClassifyPath(files[i].path);
    data[i].lines = internal::Tokenize(files[i].content);
    data[i].toks = TokenStream(data[i].lines);
    CollectConcurrency(data[i].toks, &tables);
  }

  // Per-file rules fan out over worker threads; the final sort makes the
  // output identical at any thread count.
  std::vector<std::vector<Diagnostic>> per_file(data.size());
  auto check_one = [&](size_t i) {
    RuleRunner runner(data[i].file->path, &per_file[i]);
    runner.Run(data[i].lines);
    CheckConcurrency(data[i].file->path, data[i].ctx, data[i].lines,
                     data[i].toks, tables, &per_file[i]);
  };
  if (threads <= 1 || data.size() <= 1) {
    for (size_t i = 0; i < data.size(); ++i) check_one(i);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= data.size()) return;
        check_one(i);
      }
    };
    const size_t count = std::min<size_t>(static_cast<size_t>(threads),
                                          data.size());
    std::vector<std::thread> workers;
    workers.reserve(count);
    for (size_t t = 0; t < count; ++t) workers.emplace_back(worker);
    for (std::thread& w : workers) w.join();
  }

  std::vector<Diagnostic> diagnostics;
  for (std::vector<Diagnostic>& d : per_file) {
    diagnostics.insert(diagnostics.end(), d.begin(), d.end());
  }

  IncludeGraphAnalysis graph = AnalyzeIncludeGraph(files, consumers);
  diagnostics.insert(diagnostics.end(), graph.diagnostics.begin(),
                     graph.diagnostics.end());
  if (graph_json != nullptr) *graph_json = std::move(graph.json);

  std::sort(diagnostics.begin(), diagnostics.end(), DiagnosticOrder);
  return diagnostics;
}

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  std::ostringstream os;
  os << diagnostic.file << ":" << diagnostic.line << ": [" << diagnostic.rule
     << "] " << diagnostic.message;
  return os.str();
}

// ---------------------------------------------------------------------------
// Self-test corpus: one seeded violation per rule (plus clean companions).
// ---------------------------------------------------------------------------

namespace {

struct SelfTestCase {
  const char* name;
  const char* path;
  const char* content;
  const char* rule;  // expected rule; nullptr = expect clean
  int line;          // expected line of the diagnostic
};

constexpr SelfTestCase kSelfTests[] = {
    {"rand-call", "src/ml/model.cc", "int f() {\n  return rand();\n}\n",
     "nondeterminism", 2},
    {"system-clock", "src/similarity/dtw.cc",
     "#include <chrono>\nauto t = std::chrono::system_clock::now();\n",
     "nondeterminism", 2},
    {"steady-clock-ok", "src/obs/trace.cc",
     "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n",
     nullptr, 0},
    {"rng-impl-exempt", "src/common/rng.cc",
     "#include <random>\nstd::random_device rd;\n", nullptr, 0},
    {"unordered-in-ml", "src/ml/model.cc",
     "#include <unordered_map>\nstd::unordered_map<int, int> m;\n",
     "unordered-container", 2},
    {"unordered-in-telemetry-ok", "src/telemetry/io.cc",
     "#include <unordered_map>\nstd::unordered_map<int, int> m;\n", nullptr,
     0},
    {"float-in-linalg", "src/linalg/matrix.cc", "float x = 1.0f;\n",
     "raw-float", 1},
    {"float-in-comment-ok", "src/linalg/matrix.cc",
     "// float is banned here\ndouble x = 1.0;\n", nullptr, 0},
    {"cout-in-predict", "src/predict/baseline.cc",
     "#include <iostream>\nvoid f() { std::cout << 1; }\n", "io-in-library",
     2},
    {"printf-in-obs-ok", "src/obs/export.cc",
     "#include <cstdio>\nvoid f() { std::printf(\"x\"); }\n", nullptr, 0},
    {"missing-nodiscard", "src/common/status.h", "class Status {\n};\n",
     "nodiscard-status", 1},
    {"nodiscard-present-ok", "src/common/status.h",
     "class [[nodiscard]] Status {\n};\nclass [[nodiscard]] Result {\n};\n",
     nullptr, 0},
    {"bare-discard", "src/core/pipeline.cc", "void f() {\n  (void)g();\n}\n",
     "bare-discard", 2},
    {"commented-discard-ok", "src/core/pipeline.cc",
     "void f() {\n  (void)g();  // best-effort cleanup\n}\n", nullptr, 0},
    {"layering-common-upward", "src/common/csv.cc",
     "#include \"obs/json.h\"\n", "layering", 1},
    {"layering-obs-leaf", "src/obs/metrics.cc",
     "#include \"linalg/matrix.h\"\n", "layering", 1},
    {"layering-linalg-ml", "src/linalg/solve.cc", "#include \"ml/mlp.h\"\n",
     "layering", 1},
    {"layering-core-ok", "src/core/pipeline.cc",
     "#include \"featsel/registry.h\"\n#include \"sim/engine.h\"\n", nullptr,
     0},
    {"layering-similarity-core", "src/similarity/query.cc",
     "#include \"core/pipeline.h\"\n", "layering", 1},
    {"layering-similarity-ok", "src/similarity/query.cc",
     "#include \"similarity/measures.h\"\n#include \"obs/metrics.h\"\n"
     "#include \"telemetry/experiment.h\"\n",
     nullptr, 0},
    // The SIMD layer is a common/ leaf: anything may include it, and it
    // must never reach upward (a kernel header that pulled in similarity/
    // would invert the dependency the sketch tier relies on).
    {"layering-simd-ok", "src/similarity/dtw.cc",
     "#include \"common/simd.h\"\n#include \"similarity/query.h\"\n", nullptr,
     0},
    {"layering-common-simd-upward", "src/common/simd.h",
     "#include \"similarity/sketch.h\"\n", "layering", 1},
    {"layering-sketch-ok", "src/similarity/sketch.cc",
     "#include \"similarity/representation.h\"\n#include \"common/simd.h\"\n",
     nullptr, 0},
    {"string-literal-ok", "src/ml/model.cc",
     "const char* s = \"call rand() and float time(\";\n", nullptr, 0},
    {"layering-serve-ok", "src/serve/service.cc",
     "#include \"core/pipeline.h\"\n#include \"obs/metrics.h\"\n"
     "#include \"common/status.h\"\n#include \"serve/snapshot.h\"\n",
     nullptr, 0},
    {"layering-serve-ml", "src/serve/service.cc",
     "#include \"ml/mlp.h\"\n", "layering", 1},
    {"layering-core-serve", "src/core/pipeline.cc",
     "#include \"serve/service.h\"\n", "layering", 1},
    {"layering-core-stream", "src/core/pipeline.cc",
     "#include \"stream/ingest.h\"\n", "layering", 1},
    {"layering-serve-stream-ok", "src/serve/stream_refit.h",
     "#include \"stream/ingest.h\"\n#include \"serve/service.h\"\n", nullptr,
     0},
    {"layering-stream-serve", "src/stream/ingest.cc",
     "#include \"serve/service.h\"\n", "layering", 1},
    {"layering-stream-ok", "src/stream/window.cc",
     "#include \"similarity/representation.h\"\n"
     "#include \"telemetry/feature_catalog.h\"\n",
     nullptr, 0},
    // --- guarded-field ---
    {"guarded-unlocked-write", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void Bump() {\n"
     "    ++count_;\n"
     "  }\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     "guarded-field", 5},
    {"guarded-mutexlock-ok", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void Bump() {\n"
     "    MutexLock lock(mu_);\n"
     "    ++count_;\n"
     "  }\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     nullptr, 0},
    {"guarded-requires-ok", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void BumpLocked() WPRED_REQUIRES(mu_) { ++count_; }\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     nullptr, 0},
    {"guarded-out-of-class", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void Bump();\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n"
     "void Counter::Bump() {\n"
     "  ++count_;\n"
     "}\n",
     "guarded-field", 10},
    {"guarded-out-of-class-requires-ok", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void BumpLocked() WPRED_REQUIRES(mu_);\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n"
     "void Counter::BumpLocked() {\n"
     "  ++count_;\n"
     "}\n",
     nullptr, 0},
    {"guarded-ctor-exempt-ok", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  Counter() { count_ = 0; }\n"
     "  ~Counter() { count_ = 0; }\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     nullptr, 0},
    {"guarded-lock-released", "src/core/counter.cc",
     "#include \"common/mutex.h\"\n"
     "class Counter {\n"
     " public:\n"
     "  void Bump() {\n"
     "    { MutexLock lock(mu_); }\n"
     "    ++count_;\n"
     "  }\n"
     " private:\n"
     "  Mutex mu_;\n"
     "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
     "};\n",
     "guarded-field", 6},
    // --- atomics-order ---
    {"atomics-defaulted-order", "src/serve/box.cc",
     "#include <atomic>\n"
     "std::atomic<int> a{0};\n"
     "int f() {\n"
     "  return a.load();\n"
     "}\n",
     "atomics-order", 4},
    {"atomics-explicit-ok", "src/serve/box.cc",
     "#include <atomic>\n"
     "std::atomic<int> a{0};\n"
     "int f() {\n"
     "  return a.load(std::memory_order_acquire);\n"
     "}\n",
     nullptr, 0},
    {"atomics-wrapped-call-ok", "src/serve/box.cc",
     "#include <atomic>\n"
     "std::atomic<int> a{0};\n"
     "int f() {\n"
     "  return a.load(\n"
     "      std::memory_order_acquire);\n"
     "}\n",
     nullptr, 0},
    {"atomics-fence", "src/serve/box.cc",
     "#include <atomic>\n"
     "void f() {\n"
     "  std::atomic_thread_fence(std::memory_order_seq_cst);\n"
     "}\n",
     "atomics-order", 3},
    // No file is exempt, the parallel substrate included.
    {"atomics-fence-in-common", "src/common/parallel.cc",
     "#include <atomic>\n"
     "void f() {\n"
     "  std::atomic_thread_fence(std::memory_order_acquire);\n"
     "}\n",
     "atomics-order", 3},
    {"atomics-relaxed-on-published", "src/serve/box.cc",
     "#include <atomic>\n"
     "#include \"common/annotations.h\"\n"
     "class Box {\n"
     "  int Read() {\n"
     "    return head_.load(std::memory_order_relaxed);\n"
     "  }\n"
     "  std::atomic<int> head_ WPRED_ATOMIC_PUBLISHED{0};\n"
     "};\n",
     "atomics-order", 5},
    {"atomics-acquire-on-published-ok", "src/serve/box.cc",
     "#include <atomic>\n"
     "#include \"common/annotations.h\"\n"
     "class Box {\n"
     "  int Read() {\n"
     "    return head_.load(std::memory_order_acquire);\n"
     "  }\n"
     "  std::atomic<int> head_ WPRED_ATOMIC_PUBLISHED{0};\n"
     "};\n",
     nullptr, 0},
    // --- bare-suppression ---
    {"suppression-no-rationale", "src/ml/model.cc",
     "double x = 0.0;  // wpred-lint: allow(raw-float)\n", "bare-suppression",
     1},
    {"suppression-unknown-rule", "src/ml/model.cc",
     "// wpred-lint: allow(no-such-rule): misremembered name\n"
     "double x = 0.0;\n",
     "bare-suppression", 1},
    {"suppression-with-rationale-ok", "src/ml/model.cc",
     "// wpred-lint: allow(unordered-container): scratch map, drained into\n"
     "// a sorted vector before anything reads it\n"
     "std::unordered_map<int, int> scratch;\n",
     nullptr, 0},
    {"suppression-multi-rule-ok", "src/ml/model.cc",
     "// wpred-lint: allow(unordered-container, raw-float): interop shim\n"
     "std::unordered_map<int, float> shim;\n",
     nullptr, 0},
};

// Program-level corpus: each case is a miniature tree fed to LintProgram.
// `rule` fires at (file, line); a nullptr rule expects a clean program.
struct ProgramSelfTestCase {
  const char* name;
  std::vector<SourceFile> files;
  std::vector<SourceFile> consumers;
  const char* rule;
  const char* file;  // where the diagnostic lands
  int line;
};

const std::vector<ProgramSelfTestCase>& ProgramSelfTests() {
  static const std::vector<ProgramSelfTestCase> cases = {
      {"include-cycle",
       {{"src/linalg/a.h", "#include \"linalg/b.h\"\nint a();\n"},
        {"src/linalg/b.h", "#include \"linalg/a.h\"\nint b();\n"},
        {"src/linalg/a.cc", "#include \"linalg/a.h\"\nint a() { return 1; }\n"}},
       {{"tests/a_test.cc", "#include \"linalg/a.h\"\n"}},
       "include-graph",
       "src/linalg/b.h",
       1},
      {"orphan-header",
       {{"src/linalg/used.h", "int u();\n"},
        {"src/linalg/unused.h", "int x();\n"},
        {"src/linalg/used.cc",
         "#include \"linalg/used.h\"\nint u() { return 1; }\n"}},
       {},
       "include-graph",
       "src/linalg/unused.h",
       1},
      {"orphan-consumed-ok",
       {{"src/linalg/used.h", "int u();\n"},
        {"src/linalg/helper.h", "int h();\n"},
        {"src/linalg/used.cc",
         "#include \"linalg/used.h\"\nint u() { return 1; }\n"}},
       {{"tests/helper_test.cc", "#include \"linalg/helper.h\"\n"}},
       nullptr,
       "",
       0},
      // A suppressed direct layering violation mid-chain: the per-file rule
      // is silenced in helper.h, but the include-graph pass still flags the
      // consumer that transitively reaches ml/ from linalg/.
      {"transitive-layering-leak",
       {{"src/linalg/solve.cc",
         "#include \"linalg/helper.h\"\nint s() { return h(); }\n"},
        {"src/linalg/helper.h",
         "// wpred-lint: allow(layering, include-graph): seeded violation\n"
         "#include \"ml/model.h\"\nint h();\n"},
        {"src/ml/model.h", "int m();\n"}},
       {{"tests/t.cc",
         "#include \"linalg/helper.h\"\n#include \"ml/model.h\"\n"}},
       "include-graph",
       "src/linalg/solve.cc",
       1},
      // Cross-file contract: the header guards the field, the .cc touches
      // it without the mutex — only a whole-program pass can see both.
      {"cross-file-guarded-field",
       {{"src/core/counter.h",
         "#include \"common/mutex.h\"\n"
         "class Counter {\n"
         " public:\n"
         "  void Bump();\n"
         " private:\n"
         "  Mutex mu_;\n"
         "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
         "};\n"},
        {"src/core/counter.cc",
         "#include \"core/counter.h\"\n"
         "void Counter::Bump() {\n"
         "  ++count_;\n"
         "}\n"}},
       {{"tests/counter_test.cc", "#include \"core/counter.h\"\n"},
        {"tests/mutex_test.cc", "#include \"common/mutex.h\"\n"}},
       "guarded-field",
       "src/core/counter.cc",
       3},
      {"cross-file-guarded-ok",
       {{"src/core/counter.h",
         "#include \"common/mutex.h\"\n"
         "class Counter {\n"
         " public:\n"
         "  void Bump();\n"
         " private:\n"
         "  Mutex mu_;\n"
         "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
         "};\n"},
        {"src/core/counter.cc",
         "#include \"core/counter.h\"\n"
         "void Counter::Bump() {\n"
         "  MutexLock lock(mu_);\n"
         "  ++count_;\n"
         "}\n"}},
       {{"tests/counter_test.cc", "#include \"core/counter.h\"\n"},
        {"tests/mutex_test.cc", "#include \"common/mutex.h\"\n"}},
       nullptr,
       "",
       0},
  };
  return cases;
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  for (const SelfTestCase& test : kSelfTests) {
    const std::vector<Diagnostic> diagnostics =
        LintSource(test.path, test.content);
    if (test.rule == nullptr) {
      if (!diagnostics.empty()) {
        failures.push_back(std::string("self-test '") + test.name +
                           "': expected clean, got " +
                           FormatDiagnostic(diagnostics.front()));
      }
      continue;
    }
    const bool fired =
        std::any_of(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) {
                      return d.rule == test.rule && d.line == test.line;
                    });
    if (!fired) {
      failures.push_back(std::string("self-test '") + test.name +
                         "': expected [" + test.rule + "] at line " +
                         std::to_string(test.line) + ", rule did not fire");
      continue;
    }
    // The same violation must fall silent under its suppression comment.
    std::istringstream in(test.content);
    std::ostringstream suppressed;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      suppressed << line;
      if (line_no == test.line) {
        // Rationale included so the appended comment passes the
        // bare-suppression audit itself.
        suppressed << "  // wpred-lint: allow(" << test.rule
                   << "): self-test suppression";
      }
      suppressed << "\n";
    }
    const std::vector<Diagnostic> after =
        LintSource(test.path, suppressed.str());
    const bool still_fires =
        std::any_of(after.begin(), after.end(), [&](const Diagnostic& d) {
          return d.rule == test.rule && d.line == test.line;
        });
    if (still_fires) {
      failures.push_back(std::string("self-test '") + test.name +
                         "': suppression comment did not silence [" +
                         test.rule + "]");
    }
  }

  for (const ProgramSelfTestCase& test : ProgramSelfTests()) {
    std::string json;
    const std::vector<Diagnostic> diagnostics =
        LintProgram(test.files, test.consumers, 1, &json);
    if (json.empty()) {
      failures.push_back(std::string("program self-test '") + test.name +
                         "': empty lint_graph.json payload");
    }
    if (test.rule == nullptr) {
      if (!diagnostics.empty()) {
        failures.push_back(std::string("program self-test '") + test.name +
                           "': expected clean, got " +
                           FormatDiagnostic(diagnostics.front()));
      }
      continue;
    }
    const bool fired = std::any_of(
        diagnostics.begin(), diagnostics.end(), [&](const Diagnostic& d) {
          return d.rule == test.rule && d.file == test.file &&
                 d.line == test.line;
        });
    if (!fired) {
      failures.push_back(std::string("program self-test '") + test.name +
                         "': expected [" + test.rule + "] at " + test.file +
                         ":" + std::to_string(test.line) +
                         ", rule did not fire");
    }
  }
  return failures;
}

}  // namespace wpred::lint
