// Golden outcome sets for the operational enumerator over the generated
// family corpus (sim::generate_families, default options).
//
// tests/golden/family_outcome_digests.txt holds one 64-bit digest per block
// of 64 programs per architecture.  A digest covers each program's sorted
// outcome set, in corpus order, so any change to any outcome of any program
// in the block changes it.  Two groups are recorded: every program with at
// most 3 threads ("le3"), and every 17th 4-thread program ("t4") — a fixed
// stride, so the sample is the same on every run.
//
// On a mismatch the test names the first block that differs and the programs
// in it, and writes the recomputed file to family_outcome_digests.actual in
// the working directory.  Re-recording after a deliberate semantic change is
// copying that file over the golden one.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "par/deterministic_map.h"
#include "sim/litmus_family.h"
#include "sim/memory_model.h"

#ifndef WMM_GOLDEN_DIR
#error "WMM_GOLDEN_DIR must point at tests/golden"
#endif

namespace wmm::sim {
namespace {

constexpr std::size_t kBlock = 64;
constexpr std::size_t kFourThreadStride = 17;
constexpr Arch kArches[] = {Arch::SC, Arch::X86_TSO, Arch::ARMV8,
                            Arch::POWER7};

const char* golden_path() {
  return WMM_GOLDEN_DIR "/family_outcome_digests.txt";
}

void fnv(std::uint64_t& h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

// Programs of one group, in corpus order.
std::vector<const FamilyProgram*> group_programs(
    const std::vector<FamilyProgram>& family, const std::string& group) {
  std::vector<const FamilyProgram*> out;
  std::size_t four = 0;
  for (const FamilyProgram& p : family) {
    if (p.test.threads.size() <= 3) {
      if (group == "le3") out.push_back(&p);
    } else if (four++ % kFourThreadStride == 0 && group == "t4") {
      out.push_back(&p);
    }
  }
  return out;
}

// Per program, one digest of its outcome set on each architecture.
using ProgramDigests = std::vector<std::uint64_t>;

ProgramDigests program_digests(const FamilyProgram* p) {
  ProgramDigests out;
  for (const Arch arch : kArches) {
    const std::set<Outcome> outcomes = enumerate_outcomes(p->test, arch);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    fnv(h, static_cast<std::int64_t>(outcomes.size()));
    for (const Outcome& o : outcomes) {
      fnv(h, static_cast<std::int64_t>(o.size()));
      for (const int v : o) fnv(h, v);
    }
    out.push_back(h);
  }
  return out;
}

// "<arch> <group> <block> <digest>" lines of one group.
std::vector<std::string> group_lines(
    const std::vector<const FamilyProgram*>& programs,
    const std::string& group) {
  const std::vector<ProgramDigests> per_program =
      par::par_map(programs, program_digests, 4);
  std::vector<std::string> lines;
  for (std::size_t a = 0; a < std::size(kArches); ++a) {
    for (std::size_t b = 0; b * kBlock < programs.size(); ++b) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::size_t i = b * kBlock;
           i < programs.size() && i < (b + 1) * kBlock; ++i) {
        fnv(h, static_cast<std::int64_t>(per_program[i][a]));
      }
      char line[96];
      std::snprintf(line, sizeof line, "%s %s %zu %016" PRIx64,
                    arch_name(kArches[a]), group.c_str(), b, h);
      lines.push_back(line);
    }
  }
  return lines;
}

// Recorded lines of `group`, keyed by "<arch> <group> <block>".
std::map<std::string, std::string> recorded(const std::string& group) {
  std::ifstream in(golden_path());
  std::map<std::string, std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string arch, g, block, digest;
    fields >> arch >> g >> block >> digest;
    if (g == group) out[arch + " " + g + " " + block] = digest;
  }
  return out;
}

void write_actual(const std::string& group,
                  const std::vector<std::string>& lines) {
  std::ofstream out("family_outcome_digests.actual." + group);
  for (const std::string& line : lines) out << line << '\n';
}

void check_group(const std::string& group, std::size_t expected_programs) {
  const std::vector<FamilyProgram> family = generate_families();
  const std::vector<const FamilyProgram*> programs =
      group_programs(family, group);
  ASSERT_EQ(programs.size(), expected_programs);
  const std::map<std::string, std::string> golden = recorded(group);
  const std::vector<std::string> lines = group_lines(programs, group);
  if (golden.size() != lines.size()) write_actual(group, lines);
  ASSERT_EQ(golden.size(), lines.size()) << "blocks of " << group << " in "
                                         << golden_path();
  for (const std::string& line : lines) {
    const std::size_t cut = line.rfind(' ');
    const std::string key = line.substr(0, cut);
    const auto it = golden.find(key);
    if (it != golden.end() && it->second == line.substr(cut + 1)) continue;
    write_actual(group, lines);
    const std::size_t block =
        std::stoul(key.substr(key.rfind(' ') + 1));
    std::string names;
    for (std::size_t i = block * kBlock;
         i < programs.size() && i < (block + 1) * kBlock; ++i) {
      names += "\n  " + programs[i]->name;
    }
    FAIL() << "first differing block: " << key << " (programs "
           << block * kBlock << ".." << (block + 1) * kBlock - 1
           << " of the group):" << names;
  }
}

TEST(EnumGolden, UpToThreeThreadFamilyMatchesRecordedDigests) {
  check_group("le3", 5702);
}

TEST(EnumGolden, FourThreadSampleMatchesRecordedDigests) {
  check_group("t4", 128);
}

}  // namespace
}  // namespace wmm::sim
