// herd7 `.litmus` interop: round-trip properties and parser diagnostics.
//
// The printer/parser pair must satisfy parse(print(f)) == f structurally and
// print(parse(text)) == text byte-for-byte for everything the simulator can
// express — that is what makes the exported corpora a determinism gate.  The
// teeth table pins each malformed-input diagnostic to an exact message and
// line:col position so error reports stay stable and point at the defect.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "sim/fuzz.h"
#include "sim/litmus.h"
#include "sim/litmus_format.h"
#include "sim/rng.h"

namespace wmm::sim {
namespace {

// Structural equality of everything the file format carries.
void expect_same_file(const LitmusFile& a, const LitmusFile& b,
                      const std::string& context) {
  EXPECT_EQ(a.dialect, b.dialect) << context;
  EXPECT_EQ(a.test, b.test) << context;
  EXPECT_EQ(a.negated, b.negated) << context;
  EXPECT_EQ(a.expected, b.expected) << context;
  ASSERT_EQ(a.condition.size(), b.condition.size()) << context;
  for (std::size_t i = 0; i < a.condition.size(); ++i) {
    EXPECT_EQ(a.condition[i].is_reg, b.condition[i].is_reg) << context;
    EXPECT_EQ(a.condition[i].thread, b.condition[i].thread) << context;
    EXPECT_EQ(a.condition[i].index, b.condition[i].index) << context;
    EXPECT_EQ(a.condition[i].value, b.condition[i].value) << context;
  }
}

// parse(print(file)) == file and print(parse(text)) == text.
void expect_round_trip(const LitmusFile& file, const std::string& context) {
  const std::string text = print_litmus(file);
  LitmusFile back;
  try {
    back = parse_litmus(text);
  } catch (const LitmusParseError& e) {
    FAIL() << context << ": printed text does not re-parse: " << e.what()
           << "\n"
           << text;
  }
  expect_same_file(file, back, context);
  EXPECT_EQ(print_litmus(back), text) << context << ": reprint drifted";
}

TEST(LitmusRoundTrip, EverySuiteCaseInEveryPrintableDialect) {
  for (const LitmusCase& c : litmus_suite()) {
    ASSERT_TRUE(printable_as(c.test, LitmusDialect::AArch64)) << c.test.name;
    expect_round_trip(to_litmus_file(c, LitmusDialect::AArch64),
                      c.test.name + " [AArch64]");
    if (printable_as(c.test, LitmusDialect::X86)) {
      expect_round_trip(to_litmus_file(c, LitmusDialect::X86),
                        c.test.name + " [X86]");
    }
  }
}

TEST(LitmusRoundTrip, SuiteDialectChoiceFollowsWiredTigerConvention) {
  // to_litmus_file without a forced dialect picks X86 exactly when the
  // program is x86-shaped.
  for (const LitmusCase& c : litmus_suite()) {
    const LitmusFile f = to_litmus_file(c);
    EXPECT_EQ(f.dialect, printable_as(c.test, LitmusDialect::X86)
                             ? LitmusDialect::X86
                             : LitmusDialect::AArch64)
        << c.test.name;
  }
}

TEST(LitmusRoundTrip, FuzzerProgramsFixedSeedCorpus) {
  // A quick slice of the fuzz corpus; the 1k-program sweep lives in
  // litmus_format_fuzz_test.cpp under the `fuzz` ctest label.
  const FuzzConfig config;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t seed = hash_combine(0xc0ffee, i);
    const LitmusTest test = generate_litmus(seed, config);
    ASSERT_TRUE(printable_as(test, LitmusDialect::AArch64)) << test.name;
    const Outcome witness(
        static_cast<std::size_t>(test.num_regs + test.num_vars), 0);
    expect_round_trip(to_litmus_file(test, witness, LitmusDialect::AArch64),
                      test.name);
    if (printable_as(test, LitmusDialect::X86)) {
      expect_round_trip(to_litmus_file(test, witness, LitmusDialect::X86),
                        test.name + " [X86]");
    }
  }
}

TEST(LitmusRoundTrip, ConditionReachabilityMatchesWitness) {
  // The exists-condition built from a witness outcome holds for exactly that
  // outcome layout.
  const LitmusCase sb = make_sb();
  const LitmusFile f = to_litmus_file(sb.test, sb.relaxed_outcome);
  EXPECT_TRUE(condition_holds(f, sb.relaxed_outcome));
  Outcome other = sb.relaxed_outcome;
  other[0] ^= 1;
  EXPECT_FALSE(condition_holds(f, other));
}

// ---------------------------------------------------------------------------
// Parser teeth: every malformed input dies with a distinct diagnostic that
// names the defect and points at its line:col position.

struct TeethCase {
  const char* label;
  const char* input;
  int line;
  int col;
  const char* detail;
};

class ParserTeeth : public ::testing::TestWithParam<TeethCase> {};

void expect_teeth(const TeethCase& tc) {
  try {
    parse_litmus(tc.input);
    FAIL() << tc.label << ": expected LitmusParseError";
  } catch (const LitmusParseError& e) {
    EXPECT_EQ(e.detail(), tc.detail) << tc.label;
    EXPECT_EQ(e.line(), tc.line) << tc.label;
    EXPECT_EQ(e.col(), tc.col) << tc.label;
  }
}

TEST_P(ParserTeeth, DistinctDiagnosticWithPosition) {
  expect_teeth(GetParam());
}

constexpr const char* kValidX86 =
    "X86 SB\n"
    "{ x=0; y=0; }\n"
    " P0          | P1          ;\n"
    " MOV [x],$1  | MOV [y],$1  ;\n"
    " MOV EAX,[y] | MOV EBX,[x] ;\n"
    "exists (0:EAX=0 /\\ 1:EBX=0)\n";

const TeethCase kTeeth[] = {
    {"bad_arch_header", "RISCV test\n{ x=0; }\n P0 ;\n NOP ;\nexists (x=0)\n",
     1, 1, "unknown architecture 'RISCV' (expected X86 or AArch64)"},
    {"missing_test_name", "X86\n{ x=0; }\n P0 ;\n NOP ;\nexists (x=0)\n", 1, 4,
     "missing test name after architecture"},
    {"undeclared_register",
     "AArch64 t\n{\nx=0;\n0:X1=x;\n}\n P0          ;\n LDR W0,[X2] ;\n"
     "exists (0:W0=0)\n",
     7, 2, "undeclared address register X2 (no init binding for proc 0)"},
    {"dangling_dependency",
     "AArch64 t\n{\nx=0;\n0:X2=x;\n}\n P0          ;\n EOR W1,W0,W0 ;\n"
     " ADD W1,W1,#1 ;\n STR W1,[X2] ;\nexists (x=1)\n",
     7, 2, "dangling dependency: register W0 has not been loaded on this "
           "thread"},
    {"unterminated_condition",
     "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[x] ;\nexists (0:EAX=0\n", 5,
     8, "unterminated condition"},
    {"unterminated_comment", "X86 t (* no end\n{ x=0; }\n", 1, 7,
     "unterminated comment"},
    {"unterminated_init", "X86 t\n{ x=0;\n", 2, 1, "unterminated init block"},
    {"bad_wmm_expect_verdict",
     "X86 t\n(* wmm-expect: sc=maybe *)\n{ x=0; }\n P0          ;\n"
     " MOV EAX,[x] ;\nexists (0:EAX=0)\n",
     2, 1, "wmm-expect verdict must be allow or forbid, got 'maybe'"},
    {"row_missing_semicolon",
     "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[x]\nexists (0:EAX=0)\n", 4,
     13, "expected ';' at end of row"},
    {"wrong_column_count",
     "X86 t\n{ x=0; }\n P0 | P1 ;\n MOV EAX,[x] ;\nexists (0:EAX=0)\n", 4, 2,
     "expected 2 columns, got 1"},
    {"undeclared_variable",
     "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[y] ;\nexists (0:EAX=0)\n", 4,
     2, "undeclared variable 'y'"},
    {"condition_register_never_loaded",
     "X86 t\n{ x=0; }\n P0          ;\n MOV EAX,[x] ;\nexists (0:EBX=0)\n", 5,
     9, "condition references register EBX, which is never loaded"},
};

// A table row's full test name also prints the row's raw bytes, and so the
// addresses of its strings, which change from run to run.  These rows
// (bad_arch_header, missing_test_name, unterminated_init) are registered as
// plain ParserTeeth tests named by their label instead.
constexpr std::size_t kPlainRows[] = {0, 1, 6};

bool is_plain_row(std::size_t i) {
  for (std::size_t p : kPlainRows) {
    if (p == i) return true;
  }
  return false;
}

std::array<TeethCase, std::size(kTeeth) - std::size(kPlainRows)> table_rows() {
  std::array<TeethCase, std::size(kTeeth) - std::size(kPlainRows)> rows{};
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::size(kTeeth); ++i) {
    if (!is_plain_row(i)) rows[n++] = kTeeth[i];
  }
  return rows;
}

const auto kTableRows = table_rows();

std::string teeth_name(const ::testing::TestParamInfo<TeethCase>& info) {
  return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(All, ParserTeeth, ::testing::ValuesIn(kTableRows),
                         teeth_name);

class TeethRowTest : public ParserTeeth {
 public:
  explicit TeethRowTest(const TeethCase& tc) : tc_(tc) {}
  void TestBody() override { expect_teeth(tc_); }

 private:
  const TeethCase& tc_;
};

const bool kPlainRowsRegistered = [] {
  for (std::size_t i = 0; i < std::size(kTeeth); ++i) {
    if (!is_plain_row(i)) continue;
    ::testing::RegisterTest(
        "ParserTeeth", kTeeth[i].label, nullptr, nullptr, __FILE__, __LINE__,
        // The same fixture type as the TEST(ParserTeeth, ...) cases below.
        [i]() -> ::testing::Test* { return new TeethRowTest(kTeeth[i]); });
  }
  return true;
}();

TEST(ParserTeeth, ValidBaselineParses) {
  // The teeth cases above are one defect away from this baseline.
  const LitmusFile f = parse_litmus(kValidX86);
  EXPECT_EQ(f.test.name, "SB");
  EXPECT_EQ(f.dialect, LitmusDialect::X86);
  EXPECT_EQ(f.test.threads.size(), 2u);
  EXPECT_EQ(f.condition.size(), 2u);
}

TEST(ParserTeeth, WhatIncludesPosition) {
  try {
    parse_litmus("POWER t\n");
    FAIL() << "expected LitmusParseError";
  } catch (const LitmusParseError& e) {
    EXPECT_STREQ(e.what(),
                 "line 1, col 1: unknown architecture 'POWER' (expected X86 "
                 "or AArch64)");
  }
}

// ---------------------------------------------------------------------------
// Parser fuzz: random byte mutations of valid files must either parse or
// throw LitmusParseError — never crash, never throw anything else.  The
// sanitizer CI job runs this under ASan/UBSan.

TEST(ParserFuzz, MutatedSuiteFilesNeverCrash) {
  std::vector<std::string> seeds_text;
  for (const LitmusCase& c : litmus_suite()) {
    seeds_text.push_back(print_litmus(to_litmus_file(c)));
  }
  Rng rng(0x11717e57);
  int parsed = 0, rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string text = seeds_text[static_cast<std::size_t>(
        rng.next_below(seeds_text.size()))];
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.next_below(text.size()));
      switch (rng.next_below(3)) {
        case 0:  // flip to a random printable byte (or newline)
          text[pos] = static_cast<char>(' ' + rng.next_below(95));
          break;
        case 1:  // delete
          text.erase(pos, 1);
          break;
        default:  // duplicate
          text.insert(pos, 1, text[pos]);
          break;
      }
      if (text.empty()) text = "\n";
    }
    try {
      parse_litmus(text);
      ++parsed;
    } catch (const LitmusParseError&) {
      ++rejected;
    }
    // Anything else (std::bad_alloc aside) fails the test by escaping.
  }
  // The mutator must actually exercise both paths.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace wmm::sim
