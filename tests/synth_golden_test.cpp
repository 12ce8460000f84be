// Golden fence placements: the synthesis engine must recover the documented
// minimal fences for the classic shapes on each architecture (docs/models.md,
// docs/synthesis.md), and the in-vivo cost model must reproduce the paper's
// headline: context changes which correct fix is cheapest.
//
// These are end-to-end assertions through synth::synth_record — the same
// entry point bench/fence_synth uses — so a change anywhere in the
// lattice, oracle, cost model, or search shows up here as a changed
// placement, not just a changed number.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/litmus.h"
#include "synth/search.h"

namespace {

using namespace wmm;
using sim::Arch;

obs::SynthRecord synth(const sim::LitmusCase& c, Arch arch,
                       synth::SynthOptions options = {}) {
  return synth::synth_record(c.test, arch, options, nullptr);
}

void expect_assignment(const sim::LitmusCase& c, Arch arch,
                       const std::string& want) {
  const obs::SynthRecord rec = synth(c, arch);
  EXPECT_TRUE(rec.feasible) << c.test.name << " on " << sim::arch_name(arch);
  EXPECT_EQ(rec.assignment, want)
      << c.test.name << " on " << sim::arch_name(arch);
}

TEST(SynthGolden, MessagePassing) {
  // POWER: lwsync pair — writer W->W order plus A-cumulativity, reader
  // R->R; cheaper in vitro than the ctrl+isync reader idiom (5.9 < 9.0 ns).
  expect_assignment(sim::make_mp(), Arch::POWER7, "lwsync;lwsync");
  // ARM: the one-direction barriers suffice (JDK9's elemental pair).
  expect_assignment(sim::make_mp(), Arch::ARMV8, "dmb ishst;dmb ishld");
  // TSO preserves both W->W and R->R: nothing to synthesize.
  expect_assignment(sim::make_mp(), Arch::X86_TSO, "none;none");
}

TEST(SynthGolden, StoreBuffering) {
  // SB needs W->R order — only the full barrier provides it anywhere.
  expect_assignment(sim::make_sb(), Arch::POWER7, "sync;sync");
  expect_assignment(sim::make_sb(), Arch::ARMV8, "dmb ish;dmb ish");
  expect_assignment(sim::make_sb(), Arch::X86_TSO, "mfence;mfence");
}

TEST(SynthGolden, LoadBuffering) {
  // R->W order both sides.  POWER: lwsync undercuts the ctrl+isync idiom in
  // vitro; ARM: dmb ishld covers R->W.
  expect_assignment(sim::make_lb(), Arch::POWER7, "lwsync;lwsync");
  expect_assignment(sim::make_lb(), Arch::ARMV8, "dmb ishld;dmb ishld");
  expect_assignment(sim::make_lb(), Arch::X86_TSO, "none;none");
}

TEST(SynthGolden, Isa2ChainNeedsOnlyTheWriterFence) {
  // ISA2 carries data/addr dependencies on threads 1 and 2, so one
  // cumulative writer-side fence restores SC; the engine must *not* fence
  // the dependency-ordered slots.
  expect_assignment(sim::make_isa2(), Arch::POWER7, "lwsync;none;none");
  expect_assignment(sim::make_isa2(), Arch::ARMV8, "dmb ishst;none;none");
  expect_assignment(sim::make_isa2(), Arch::X86_TSO, "none;none;none");
}

TEST(SynthGolden, WrcNeedsCumulativityOnlyOnPower) {
  // WRC+data+addr: multi-copy-atomic architectures forbid it already; POWER
  // needs the middle thread's fence to be cumulative (lwsync), and the
  // slot-less writer thread contributes nothing.
  expect_assignment(sim::make_wrc_dep(), Arch::POWER7, "lwsync;none");
  expect_assignment(sim::make_wrc_dep(), Arch::ARMV8, "none;none");
  expect_assignment(sim::make_wrc_dep(), Arch::X86_TSO, "none;none");
}

TEST(SynthGolden, GreedyAgreesOnTheClassicShapes) {
  // Greedy is per-slot minimal, not globally cost-minimal; on these shapes
  // the two coincide (each slot's requirement is independent).
  synth::SynthOptions greedy;
  greedy.mode = synth::SearchMode::Greedy;
  EXPECT_EQ(synth(sim::make_sb(), Arch::POWER7, greedy).assignment,
            "sync;sync");
  EXPECT_EQ(synth(sim::make_mp(), Arch::ARMV8, greedy).assignment,
            "dmb ishst;dmb ishld");
  EXPECT_EQ(synth(sim::make_isa2(), Arch::POWER7, greedy).assignment,
            "lwsync;none;none");
}

TEST(SynthGolden, InVivoContextFlipsTheReaderFixOnPower) {
  // The paper's claim, operationalized: on an idle core lwsync (5.9 ns)
  // beats isync (9.0 ns), so the in-vitro minimal MP fix is lwsync;lwsync.
  // With the reader slot behind 16 private stores, lwsync's store-buffer
  // drain coupling (0.30 x drain wait) prices it above the flat-cost
  // ctrl+isync idiom, and the minimal fix flips to lwsync;isync.
  const sim::LitmusCase mp = sim::make_mp();

  synth::SynthOptions vitro;
  vitro.rank_all = true;

  synth::SynthOptions vivo = vitro;
  vivo.cost.model = synth::CostModel::InVivo;
  vivo.cost.contexts = {{}, {/*stores_before=*/16, 0, 0.0}};

  const obs::SynthRecord in_vitro = synth(mp, Arch::POWER7, vitro);
  const obs::SynthRecord in_vivo = synth(mp, Arch::POWER7, vivo);
  ASSERT_TRUE(in_vitro.feasible);
  ASSERT_TRUE(in_vivo.feasible);

  EXPECT_EQ(in_vitro.assignment, "lwsync;lwsync");
  EXPECT_EQ(in_vivo.assignment, "lwsync;isync");

  // Same correct set, different order: the rankings contain identical
  // assignments but at least one pair trades places.
  ASSERT_EQ(in_vitro.ranked.size(), in_vivo.ranked.size());
  std::vector<std::string> vitro_names, vivo_names;
  for (const auto& [name, cost] : in_vitro.ranked) vitro_names.push_back(name);
  for (const auto& [name, cost] : in_vivo.ranked) vivo_names.push_back(name);
  std::vector<std::string> a = vitro_names, b = vivo_names;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);       // the oracle doesn't care about cost models
  EXPECT_NE(vitro_names, vivo_names);  // but the ranking flipped
}

}  // namespace
