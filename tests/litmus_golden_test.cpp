// Golden `.litmus` corpus: hand-verified herd7 files under tests/litmus/
// (WiredTiger-style X86/AArch64 pairs of the classic tests; expected
// verdicts cross-referenced to docs/models.md).  Each file must parse, be in
// canonical printer form (the committed bytes ARE print_litmus output — the
// byte-level round-trip anchor), carry a wmm-expect directive, and get the
// directive's verdict from BOTH the operational executor and the axiomatic
// oracle on every architecture it names.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/axiomatic.h"
#include "sim/litmus_format.h"

#ifndef WMM_LITMUS_DIR
#error "WMM_LITMUS_DIR must point at the golden corpus"
#endif

namespace wmm::sim {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> golden_paths() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(WMM_LITMUS_DIR)) {
    if (entry.path().extension() == ".litmus") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(in) << "cannot read " << p;
  return ss.str();
}

class Golden : public ::testing::TestWithParam<fs::path> {};

TEST_P(Golden, ParsesCanonicallyAndBothOraclesMatchExpectations) {
  const fs::path path = GetParam();
  const std::string text = slurp(path);
  LitmusFile file;
  try {
    file = parse_litmus(text);
  } catch (const LitmusParseError& e) {
    FAIL() << path << ": " << e.what();
  }

  // The committed bytes are canonical printer output.
  EXPECT_EQ(print_litmus(file), text) << path << " is not in canonical form";

  // The filename's dialect prefix matches the header.
  const std::string stem = path.stem().string();
  EXPECT_TRUE(stem.rfind(std::string(litmus_dialect_name(file.dialect)) + "-",
                         0) == 0)
      << path << ": filename prefix disagrees with dialect "
      << litmus_dialect_name(file.dialect);

  // Golden files pin all four architecture verdicts.
  ASSERT_EQ(file.expected.size(), 4u) << path << ": wmm-expect incomplete";
  for (const auto& [arch, allowed] : file.expected) {
    const bool op =
        condition_reachable(file, enumerate_outcomes(file.test, arch));
    EXPECT_EQ(op, allowed)
        << path << ": operational verdict on " << arch_name(arch);
    const bool ax =
        condition_reachable(file, axiomatic_outcomes(file.test, arch));
    EXPECT_EQ(ax, allowed)
        << path << ": axiomatic verdict on " << arch_name(arch);
  }
}

std::string golden_name(const ::testing::TestParamInfo<fs::path>& info) {
  std::string name = info.param.stem().string();
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, Golden, ::testing::ValuesIn(golden_paths()),
                         golden_name);

TEST(GoldenCorpus, CoversBothDialectsInPairs) {
  int x86 = 0, aarch64 = 0;
  for (const fs::path& p : golden_paths()) {
    const std::string stem = p.stem().string();
    x86 += stem.rfind("X86-", 0) == 0;
    aarch64 += stem.rfind("AArch64-", 0) == 0;
  }
  EXPECT_GE(x86, 5);
  EXPECT_GE(aarch64, 8);
  EXPECT_GE(x86 + aarch64, 15);
}

}  // namespace
}  // namespace wmm::sim
