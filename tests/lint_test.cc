// Unit tests for the wpred_lint rule engine (tools/lint). These pin the
// diagnostic behaviour the CI lint gate relies on: every rule fires on its
// seeded violation with the right file:line, negatives stay silent, and the
// `// wpred-lint: allow(<rule>)` suppression syntax works.

#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace wpred::lint {
namespace {

using internal::CodeLine;
using internal::ContainsIdentifier;
using internal::Tokenize;

std::vector<std::string> RulesAt(const std::vector<Diagnostic>& diagnostics,
                                 int line) {
  std::vector<std::string> rules;
  for (const Diagnostic& d : diagnostics) {
    if (d.line == line) rules.push_back(d.rule);
  }
  return rules;
}

bool HasRule(const std::vector<Diagnostic>& diagnostics,
             const std::string& rule) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

// --- tokenizer ------------------------------------------------------------

TEST(LintTokenizerTest, StripsLineAndBlockComments) {
  const auto lines = Tokenize("int a;  // rand()\nint /* time( */ b;\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "rand"));
  EXPECT_TRUE(lines[0].has_comment);
  EXPECT_FALSE(ContainsIdentifier(lines[1].code, "time"));
  EXPECT_TRUE(ContainsIdentifier(lines[1].code, "b"));
}

TEST(LintTokenizerTest, StripsStringAndCharLiteralBodies) {
  const auto lines = Tokenize(
      "const char* s = \"rand() float\";\nchar c = 'f';\nchar q = '\\\"';\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "rand"));
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "float"));
  EXPECT_TRUE(ContainsIdentifier(lines[1].code, "c"));
  // The escaped quote must not leave the tokenizer stuck inside a literal.
  EXPECT_TRUE(ContainsIdentifier(lines[2].code, "q"));
}

TEST(LintTokenizerTest, RawStringsAndDigitSeparators) {
  const auto lines =
      Tokenize("auto s = R\"(rand() time( \" ))\";\nint n = "
               "1'000'000;\nint m = n;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "rand"));
  // The digit separator must not open a char literal and swallow line 3.
  EXPECT_TRUE(ContainsIdentifier(lines[2].code, "m"));
}

TEST(LintTokenizerTest, MultiLineBlockCommentCoversAllLines) {
  const auto lines = Tokenize("/* rand()\n   time(\n*/ int ok;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "rand"));
  EXPECT_FALSE(ContainsIdentifier(lines[1].code, "time"));
  EXPECT_TRUE(ContainsIdentifier(lines[2].code, "ok"));
}

TEST(LintTokenizerTest, MultiLineRawStringCoversAllLines) {
  const auto lines =
      Tokenize("auto s = R\"(rand()\n   time( \"\n)\";\nint ok = 1;\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_FALSE(ContainsIdentifier(lines[0].code, "rand"));
  EXPECT_FALSE(ContainsIdentifier(lines[1].code, "time"));
  EXPECT_TRUE(ContainsIdentifier(lines[3].code, "ok"));
}

TEST(LintTokenizerTest, LineCommentBackslashContinuation) {
  // A `//` comment whose line ends in a backslash continues onto the next
  // physical line; the continuation must stay comment, not leak into code.
  const auto lines = Tokenize(
      "int a = 1;  // disabled: rand() \\\n"
      "    time( still inside the comment\n"
      "int b = 2;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_FALSE(ContainsIdentifier(lines[1].code, "time"));
  EXPECT_TRUE(lines[1].has_comment);
  EXPECT_TRUE(ContainsIdentifier(lines[2].code, "b"));
}

TEST(LintTokenizerTest, SuppressionsSameLineAndForwarded) {
  const auto lines = Tokenize(
      "int a = rand();  // wpred-lint: allow(nondeterminism, raw-float)\n"
      "// wpred-lint: allow(layering)\n"
      "#include \"ml/mlp.h\"\n");
  ASSERT_EQ(lines.size(), 3u);
  ASSERT_EQ(lines[0].suppressed.size(), 2u);
  EXPECT_EQ(lines[0].suppressed[0], "nondeterminism");
  EXPECT_EQ(lines[0].suppressed[1], "raw-float");
  // Comment-only line forwards its allowance to the next line.
  ASSERT_FALSE(lines[2].suppressed.empty());
  EXPECT_EQ(lines[2].suppressed[0], "layering");
}

TEST(LintTokenizerTest, SuppressionCascadesAcrossBlankLines) {
  const auto lines = Tokenize(
      "// wpred-lint: allow(layering): staged migration\n"
      "\n"
      "#include \"ml/mlp.h\"\n");
  ASSERT_EQ(lines.size(), 3u);
  ASSERT_FALSE(lines[2].suppressed.empty());
  EXPECT_EQ(lines[2].suppressed[0], "layering");
}

TEST(LintTokenizerTest, SuppressionFollowsWrappedStatements) {
  // Code not ending in `;{}` forwards its suppressions, so a comment above
  // a wrapped statement covers every line the statement spans — and stops
  // once the statement ends.
  const auto lines = Tokenize(
      "// wpred-lint: allow(nondeterminism): seeded for the demo\n"
      "int a = rand() +\n"
      "        rand();\n"
      "int b = rand();\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_FALSE(lines[1].suppressed.empty());
  EXPECT_FALSE(lines[2].suppressed.empty());
  EXPECT_TRUE(lines[3].suppressed.empty());
}

// --- nondeterminism -------------------------------------------------------

TEST(LintRuleTest, NondeterminismFlagsRandAndClocks) {
  const auto d = LintSource("src/ml/model.cc",
                            "int f() {\n"
                            "  srand(42);\n"
                            "  auto t = std::chrono::system_clock::now();\n"
                            "  return rand();\n"
                            "}\n");
  EXPECT_EQ(RulesAt(d, 2), std::vector<std::string>{"nondeterminism"});
  EXPECT_EQ(RulesAt(d, 3), std::vector<std::string>{"nondeterminism"});
  EXPECT_EQ(RulesAt(d, 4), std::vector<std::string>{"nondeterminism"});
}

TEST(LintRuleTest, NondeterminismAllowsSteadyClockAndNamesContainingTime) {
  const auto d = LintSource(
      "src/obs/trace.cc",
      "auto t0 = std::chrono::steady_clock::now();\n"
      "double wall_time(int x);\n"   // identifier ends in `time` but is not it
      "double runtime = 0.0;\n");
  EXPECT_TRUE(d.empty());
}

TEST(LintRuleTest, NondeterminismExemptsCommonRng) {
  const auto d = LintSource("src/common/rng.cc",
                            "std::random_device rd;\nint s = rand();\n");
  EXPECT_TRUE(d.empty());
}

TEST(LintRuleTest, NondeterminismAppliesToToolsAndBench) {
  EXPECT_TRUE(HasRule(LintSource("tools/wpred_cli.cc", "int x = rand();\n"),
                      "nondeterminism"));
  EXPECT_TRUE(HasRule(
      LintSource("bench/bench_micro_kernels.cc", "srand(7);\n"),
      "nondeterminism"));
  // Test code may use whatever clocks it wants.
  EXPECT_TRUE(LintSource("tests/ml_test.cc", "int x = rand();\n").empty());
}

// --- unordered-container / raw-float --------------------------------------

TEST(LintRuleTest, UnorderedContainerOnlyInNumericModules) {
  const std::string snippet = "std::unordered_map<int, double> cache;\n";
  for (const char* path :
       {"src/linalg/stats.cc", "src/ml/model.cc", "src/similarity/dtw.cc",
        "src/featsel/filter.cc", "src/predict/baseline.cc"}) {
    EXPECT_TRUE(HasRule(LintSource(path, snippet), "unordered-container"))
        << path;
  }
  for (const char* path : {"src/common/csv.cc", "src/obs/metrics.cc",
                           "src/telemetry/io.cc", "src/core/pipeline.cc",
                           "tools/metrics_summary.cc"}) {
    EXPECT_FALSE(HasRule(LintSource(path, snippet), "unordered-container"))
        << path;
  }
}

TEST(LintRuleTest, RawFloatInKernelOnly) {
  EXPECT_TRUE(
      HasRule(LintSource("src/linalg/matrix.cc", "float v = 0;\n"),
              "raw-float"));
  EXPECT_FALSE(
      HasRule(LintSource("src/obs/export.cc", "float v = 0;\n"), "raw-float"));
  // `float` inside an identifier or comment never fires.
  EXPECT_TRUE(
      LintSource("src/linalg/matrix.cc",
                 "int floaty = 1;  // float would be wrong here\n")
          .empty());
}

// --- io-in-library --------------------------------------------------------

TEST(LintRuleTest, IoInLibraryFlagsCoutOutsideObsAndCommon) {
  EXPECT_TRUE(HasRule(
      LintSource("src/predict/roofline.cc", "std::cout << \"x\";\n"),
      "io-in-library"));
  EXPECT_TRUE(HasRule(
      LintSource("src/telemetry/io.cc", "fprintf(stderr, \"warn\");\n"),
      "io-in-library"));
  EXPECT_FALSE(HasRule(
      LintSource("src/obs/export.cc", "std::cout << \"x\";\n"),
      "io-in-library"));
  EXPECT_FALSE(HasRule(
      LintSource("src/common/parallel.cc", "fprintf(stderr, \"warn\");\n"),
      "io-in-library"));
  // snprintf formats into a buffer — not console IO.
  EXPECT_TRUE(LintSource("src/telemetry/io.cc",
                         "std::snprintf(buf, sizeof(buf), \"%g\", v);\n")
                  .empty());
}

// --- nodiscard-status -----------------------------------------------------

TEST(LintRuleTest, NodiscardStatusGuardsTheDeclarations) {
  EXPECT_TRUE(HasRule(
      LintSource("src/common/status.h", "class Status {\n};\n"),
      "nodiscard-status"));
  EXPECT_TRUE(HasRule(
      LintSource("src/common/status.h", "class Result {\n};\n"),
      "nodiscard-status"));
  EXPECT_TRUE(LintSource("src/common/status.h",
                         "class [[nodiscard]] Status {\n};\n"
                         "enum class StatusCode {\n};\n")
                  .empty());
  // Other files may declare whatever they like.
  EXPECT_TRUE(
      LintSource("src/telemetry/io.cc", "class Status {\n};\n").empty());
}

// --- bare-discard ---------------------------------------------------------

TEST(LintRuleTest, BareDiscardNeedsComment) {
  EXPECT_TRUE(HasRule(
      LintSource("src/core/pipeline.cc", "void f() {\n  (void)g();\n}\n"),
      "bare-discard"));
  EXPECT_TRUE(HasRule(
      LintSource("src/core/pipeline.cc", "  static_cast<void>(g());\n"),
      "bare-discard"));
  EXPECT_FALSE(HasRule(
      LintSource("src/core/pipeline.cc",
                 "void f() {\n  (void)g();  // fire-and-forget telemetry\n}\n"),
      "bare-discard"));
  // C-style `f(void)` parameter lists are not discards.
  EXPECT_TRUE(LintSource("src/core/pipeline.cc", "int f(void);\n").empty());
}

// --- layering -------------------------------------------------------------

TEST(LintRuleTest, LayeringEnforcesTheDag) {
  // common depends on nothing.
  EXPECT_TRUE(HasRule(
      LintSource("src/common/csv.cc", "#include \"linalg/matrix.h\"\n"),
      "layering"));
  // obs is leaf-only over common.
  EXPECT_TRUE(HasRule(
      LintSource("src/obs/metrics.cc", "#include \"telemetry/io.h\"\n"),
      "layering"));
  EXPECT_TRUE(
      LintSource("src/obs/json.cc", "#include \"common/status.h\"\n").empty());
  // Downward edges are fine; upward edges are not.
  EXPECT_TRUE(
      LintSource("src/ml/mlp.cc", "#include \"linalg/solve.h\"\n").empty());
  EXPECT_TRUE(HasRule(
      LintSource("src/linalg/solve.cc", "#include \"ml/mlp.h\"\n"),
      "layering"));
  EXPECT_TRUE(HasRule(
      LintSource("src/ml/model.cc", "#include \"core/pipeline.h\"\n"),
      "layering"));
  // core sits at the top and sees everything.
  EXPECT_TRUE(LintSource("src/core/workbench.cc",
                         "#include \"sim/engine.h\"\n"
                         "#include \"featsel/registry.h\"\n"
                         "#include \"predict/strategies.h\"\n")
                  .empty());
  // System headers and same-module includes are always fine.
  EXPECT_TRUE(LintSource("src/linalg/eigen.cc",
                         "#include <vector>\n#include \"linalg/matrix.h\"\n")
                  .empty());
  // src must never reach into tests/ or bench/.
  EXPECT_TRUE(HasRule(
      LintSource("src/ml/model.cc", "#include \"tests/helpers.h\"\n"),
      "layering"));
  // serve sits above core (core + obs + common only) ...
  EXPECT_TRUE(LintSource("src/serve/service.cc",
                         "#include \"core/pipeline.h\"\n"
                         "#include \"obs/metrics.h\"\n"
                         "#include \"common/status.h\"\n")
                  .empty());
  EXPECT_TRUE(HasRule(
      LintSource("src/serve/service.cc", "#include \"ml/mlp.h\"\n"),
      "layering"));
  EXPECT_TRUE(HasRule(
      LintSource("src/serve/checkpoint.cc",
                 "#include \"telemetry/experiment.h\"\n"),
      "layering"));
  // ... and nothing inside src/ may depend back on serve.
  EXPECT_TRUE(HasRule(
      LintSource("src/core/pipeline.cc", "#include \"serve/service.h\"\n"),
      "layering"));
  EXPECT_TRUE(HasRule(
      LintSource("src/obs/metrics.cc", "#include \"serve/snapshot.h\"\n"),
      "layering"));
}

// --- guarded-field --------------------------------------------------------

TEST(LintRuleTest, GuardedFieldNeedsTheDeclaredMutex) {
  const auto d = LintSource("src/core/counter.cc",
                            "#include \"common/mutex.h\"\n"
                            "class Counter {\n"
                            " public:\n"
                            "  void Bump() {\n"
                            "    ++count_;\n"
                            "  }\n"
                            " private:\n"
                            "  Mutex mu_;\n"
                            "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
                            "};\n");
  EXPECT_EQ(RulesAt(d, 5), std::vector<std::string>{"guarded-field"});
}

TEST(LintRuleTest, GuardedFieldSatisfiedByMutexLockOrRequires) {
  EXPECT_TRUE(LintSource("src/core/counter.cc",
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
                         "};\n")
                  .empty());
  EXPECT_TRUE(LintSource("src/core/counter.cc",
                         "#include \"common/mutex.h\"\n"
                         "class Counter {\n"
                         " public:\n"
                         "  void BumpLocked() WPRED_REQUIRES(mu_) "
                         "{ ++count_; }\n"
                         " private:\n"
                         "  Mutex mu_;\n"
                         "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
                         "};\n")
                  .empty());
}

TEST(LintRuleTest, GuardedFieldCoversOutOfClassDefinitions) {
  // The WPRED_REQUIRES contract on the declaration licenses the
  // out-of-class body; without it the same body fires.
  const std::string header =
      "#include \"common/mutex.h\"\n"
      "class Counter {\n"
      " public:\n"
      "  void Bump();\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const auto d = LintSource(
      "src/core/counter.cc",
      header + "void Counter::Bump() {\n  ++count_;\n}\n");
  EXPECT_EQ(RulesAt(d, 10), std::vector<std::string>{"guarded-field"});
}

TEST(LintRuleTest, GuardedFieldLockReleasesAtScopeExit) {
  const auto d = LintSource("src/core/counter.cc",
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
                            "};\n");
  EXPECT_EQ(RulesAt(d, 6), std::vector<std::string>{"guarded-field"});
}

TEST(LintRuleTest, GuardedFieldExemptsConstructorsLikeClangTsa) {
  EXPECT_TRUE(LintSource("src/core/counter.cc",
                         "#include \"common/mutex.h\"\n"
                         "class Counter {\n"
                         " public:\n"
                         "  Counter() { count_ = 0; }\n"
                         "  ~Counter() { count_ = 0; }\n"
                         " private:\n"
                         "  Mutex mu_;\n"
                         "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
                         "};\n")
                  .empty());
}

// --- atomics-order --------------------------------------------------------

TEST(LintRuleTest, AtomicsOrderMustBeExplicit) {
  EXPECT_TRUE(HasRule(LintSource("src/serve/box.cc",
                                 "#include <atomic>\n"
                                 "std::atomic<int> a{0};\n"
                                 "int f() {\n"
                                 "  return a.load();\n"
                                 "}\n"),
                      "atomics-order"));
  EXPECT_TRUE(LintSource("src/serve/box.cc",
                         "#include <atomic>\n"
                         "std::atomic<int> a{0};\n"
                         "int f() {\n"
                         "  return a.load(std::memory_order_acquire);\n"
                         "}\n")
                  .empty());
  // The order argument may land on a continuation line.
  EXPECT_TRUE(LintSource("src/serve/box.cc",
                         "#include <atomic>\n"
                         "std::atomic<int> a{0};\n"
                         "int f() {\n"
                         "  return a.load(\n"
                         "      std::memory_order_acquire);\n"
                         "}\n")
                  .empty());
}

TEST(LintRuleTest, AtomicFencesFlaggedInEveryFile) {
  const std::string snippet =
      "#include <atomic>\n"
      "void f() {\n"
      "  std::atomic_thread_fence(std::memory_order_seq_cst);\n"
      "}\n";
  // No file is exempt: the parallel substrate and the rest of common/ are
  // held to the same rule as everything else.
  for (const char* path : {"src/serve/box.cc", "src/common/parallel.cc",
                           "src/common/parallel.h", "src/common/mutex.h"}) {
    EXPECT_TRUE(HasRule(LintSource(path, snippet), "atomics-order")) << path;
  }
}

TEST(LintRuleTest, RelaxedLoadOnPublishedFieldFlagged) {
  const auto d = LintSource("src/serve/box.cc",
                            "#include <atomic>\n"
                            "#include \"common/annotations.h\"\n"
                            "class Box {\n"
                            "  int Read() {\n"
                            "    return head_.load(std::memory_order_relaxed);\n"
                            "  }\n"
                            "  std::atomic<int> head_ "
                            "WPRED_ATOMIC_PUBLISHED{0};\n"
                            "};\n");
  EXPECT_EQ(RulesAt(d, 5), std::vector<std::string>{"atomics-order"});
  EXPECT_TRUE(LintSource("src/serve/box.cc",
                         "#include <atomic>\n"
                         "#include \"common/annotations.h\"\n"
                         "class Box {\n"
                         "  int Read() {\n"
                         "    return head_.load(std::memory_order_acquire);\n"
                         "  }\n"
                         "  std::atomic<int> head_ "
                         "WPRED_ATOMIC_PUBLISHED{0};\n"
                         "};\n")
                  .empty());
}

// --- bare-suppression -----------------------------------------------------

TEST(LintRuleTest, BareSuppressionWantsARationale) {
  EXPECT_TRUE(HasRule(
      LintSource("src/ml/model.cc",
                 "double x = 0.0;  // wpred-lint: allow(raw-float)\n"),
      "bare-suppression"));
  EXPECT_TRUE(LintSource("src/ml/model.cc",
                         "std::unordered_map<int, int> m;  // wpred-lint: "
                         "allow(unordered-container): drained into a sorted "
                         "vector\n")
                  .empty());
}

TEST(LintRuleTest, BareSuppressionRejectsUnknownRules) {
  const auto d = LintSource(
      "src/ml/model.cc",
      "// wpred-lint: allow(no-such-rule): misremembered the name\n"
      "double x = 0.0;\n");
  EXPECT_EQ(RulesAt(d, 1), std::vector<std::string>{"bare-suppression"});
}

// --- whole-program passes -------------------------------------------------

TEST(LintProgramTest, ReportsIncludeCycles) {
  const std::vector<SourceFile> files = {
      {"src/linalg/a.h", "#include \"linalg/b.h\"\nint a();\n"},
      {"src/linalg/b.h", "#include \"linalg/a.h\"\nint b();\n"},
      {"src/linalg/a.cc", "#include \"linalg/a.h\"\nint a() { return 1; }\n"}};
  const std::vector<SourceFile> consumers = {
      {"tests/a_test.cc", "#include \"linalg/a.h\"\n"}};
  const auto d = LintProgram(files, consumers);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "include-graph");
  EXPECT_EQ(d[0].file, "src/linalg/b.h");
  EXPECT_EQ(d[0].line, 1);
}

TEST(LintProgramTest, OrphanHeaderUnlessAConsumerIncludesIt) {
  const std::vector<SourceFile> files = {
      {"src/linalg/used.h", "int u();\n"},
      {"src/linalg/helper.h", "int h();\n"},
      {"src/linalg/used.cc",
       "#include \"linalg/used.h\"\nint u() { return 1; }\n"}};
  const auto orphaned = LintProgram(files, {});
  ASSERT_EQ(orphaned.size(), 1u);
  EXPECT_EQ(orphaned[0].rule, "include-graph");
  EXPECT_EQ(orphaned[0].file, "src/linalg/helper.h");
  const std::vector<SourceFile> consumers = {
      {"tests/helper_test.cc", "#include \"linalg/helper.h\"\n"}};
  EXPECT_TRUE(LintProgram(files, consumers).empty());
}

TEST(LintProgramTest, HeaderContractBindsTheCc) {
  // The header declares the guard; the .cc touches the field. Only the
  // whole-program pass sees both sides of the contract.
  const std::vector<SourceFile> header = {
      {"src/core/counter.h",
       "#include \"common/mutex.h\"\n"
       "class Counter {\n"
       " public:\n"
       "  void Bump();\n"
       " private:\n"
       "  Mutex mu_;\n"
       "  int count_ WPRED_GUARDED_BY(mu_) = 0;\n"
       "};\n"}};
  const std::vector<SourceFile> consumers = {
      {"tests/counter_test.cc", "#include \"core/counter.h\"\n"}};
  std::vector<SourceFile> unlocked = header;
  unlocked.push_back({"src/core/counter.cc",
                      "#include \"core/counter.h\"\n"
                      "void Counter::Bump() {\n"
                      "  ++count_;\n"
                      "}\n"});
  const auto d = LintProgram(unlocked, consumers);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "guarded-field");
  EXPECT_EQ(d[0].file, "src/core/counter.cc");
  EXPECT_EQ(d[0].line, 3);
  std::vector<SourceFile> locked = header;
  locked.push_back({"src/core/counter.cc",
                    "#include \"core/counter.h\"\n"
                    "void Counter::Bump() {\n"
                    "  MutexLock lock(mu_);\n"
                    "  ++count_;\n"
                    "}\n"});
  EXPECT_TRUE(LintProgram(locked, consumers).empty());
}

TEST(LintProgramTest, OutputInvariantAcrossThreadCounts) {
  // Several files with violations in each: diagnostics and the graph JSON
  // must come back identical whether the fan-out uses 1 thread or many.
  const std::vector<SourceFile> files = {
      {"src/ml/model.cc", "int a = rand();\nfloat b = 0;\n"},
      {"src/linalg/solve.cc", "float x = 0;\nint y = rand();\n"},
      {"src/obs/export.cc", "#include \"telemetry/io.h\"\n"},
      {"src/telemetry/io.h", "int t();\n"}};
  std::string json_serial;
  std::string json_threaded;
  const auto serial = LintProgram(files, {}, 1, &json_serial);
  const auto threaded = LintProgram(files, {}, 4, &json_threaded);
  EXPECT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(FormatDiagnostic(serial[i]), FormatDiagnostic(threaded[i]));
  }
  EXPECT_EQ(json_serial, json_threaded);
  EXPECT_NE(json_serial.find("\"files\""), std::string::npos);
  EXPECT_NE(json_serial.find("\"cycles\""), std::string::npos);
  EXPECT_NE(json_serial.find("\"orphans\""), std::string::npos);
  // Sorted by (file, line, rule, message).
  for (size_t i = 1; i < serial.size(); ++i) {
    EXPECT_LE(serial[i - 1].file, serial[i].file);
  }
}

// --- plumbing -------------------------------------------------------------

TEST(LintFormatTest, DiagnosticFormatIsPinned) {
  const Diagnostic d{"src/ml/mlp.cc", 42, "raw-float", "message text"};
  EXPECT_EQ(FormatDiagnostic(d), "src/ml/mlp.cc:42: [raw-float] message text");
}

TEST(LintFormatTest, DiagnosticsSortedByLine) {
  const auto d = LintSource("src/ml/model.cc",
                            "int a = rand();\nfloat b = 0;\nint c = rand();\n");
  ASSERT_EQ(d.size(), 3u);
  EXPECT_LT(d[0].line, d[1].line);
  EXPECT_LT(d[1].line, d[2].line);
}

TEST(LintRuleTest, SuppressionSilencesExactlyTheNamedRule) {
  const auto d = LintSource(
      "src/ml/model.cc",
      "float x = rand();  // wpred-lint: allow(raw-float)\n");
  EXPECT_FALSE(HasRule(d, "raw-float"));
  EXPECT_TRUE(HasRule(d, "nondeterminism"));
}

TEST(LintMetaTest, EveryRuleHasADescription) {
  const std::vector<std::string> rules = RuleNames();
  EXPECT_EQ(rules.size(), 11u);
  for (const std::string& rule : rules) {
    EXPECT_FALSE(RuleDescription(rule).empty()) << rule;
  }
  EXPECT_TRUE(RuleDescription("no-such-rule").empty());
}

TEST(LintMetaTest, SelfTestPasses) {
  EXPECT_EQ(SelfTest(), std::vector<std::string>{});
}

}  // namespace
}  // namespace wpred::lint
