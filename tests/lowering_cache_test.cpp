// The fence lowering tables are resolved once per strategy, at construction:
// a simulation run executes barriers by indexing those tables and never
// queries the ordering lattice (synth::lower_order).  The lattice's test-only
// call counter pins this on every platform, for a hand-driven Machine::run
// over every emit path and for one real workload run per platform.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jvm/fencing.h"
#include "kernel/barriers.h"
#include "platform/cxx11/runtime.h"
#include "platform/platform.h"
#include "sim/machine.h"
#include "synth/lattice.h"
#include "workloads/common.h"

namespace wmm {
namespace {

constexpr sim::Arch kArches[] = {sim::Arch::ARMV8, sim::Arch::POWER7};

// lower_order calls made while `fn` runs.
template <typename Fn>
std::uint64_t lattice_queries(Fn&& fn) {
  const std::uint64_t before = synth::lower_order_calls();
  fn();
  return synth::lower_order_calls() - before;
}

TEST(LoweringCache, MachineRunNeverQueriesTheLattice) {
  for (sim::Arch arch : kArches) {
    SCOPED_TRACE(sim::arch_name(arch));
    jvm::JvmConfig jvm_config;
    jvm_config.arch = arch;
    kernel::KernelConfig kernel_config;
    kernel_config.arch = arch;
    platform::cxx11::Cxx11Config cxx11_config;
    cxx11_config.arch = arch;
    const jvm::FencingStrategy jvm(jvm_config);
    const kernel::KernelBarriers kernel(kernel_config);
    const platform::cxx11::AtomicsRuntime atomics(cxx11_config);

    sim::Machine machine(sim::params_for(arch));
    constexpr sim::LineId kLine = 0x40;
    constexpr unsigned kSteps = 8;
    unsigned steps = 0;
    // Each step drives every emit path of all three platforms once.
    workloads::LambdaThread driver([&](sim::Cpu& cpu) {
      if (steps == kSteps) return false;
      ++steps;
      for (jvm::Elemental e : jvm::kAllElementals) jvm.emit_elemental(cpu, e, 1);
      for (std::size_t b = 0; b < 5; ++b) {
        jvm.emit_ir(cpu, static_cast<jvm::IrBarrier>(b), 2);
      }
      for (kernel::KMacro m : kernel::kAllMacros) kernel.fence(cpu, m, 3);
      kernel.read_once(cpu, kLine, 4);
      kernel.write_once(cpu, kLine, 4);
      kernel.load_acquire(cpu, kLine, 4);
      kernel.store_release(cpu, kLine, 4);
      kernel.store_mb(cpu, kLine, 4);
      kernel.read_barrier_depends(cpu, 4);
      atomics.load_relaxed(cpu, kLine, 5);
      atomics.store_relaxed(cpu, kLine, 5);
      atomics.load_acquire(cpu, kLine, 5);
      atomics.store_release(cpu, kLine, 5);
      atomics.load_seq_cst(cpu, kLine, 5);
      atomics.store_seq_cst(cpu, kLine, 5);
      atomics.rmw_acq_rel(cpu, kLine, 5);
      atomics.fence_seq_cst(cpu, 5);
      return true;
    });
    double simulated_ns = 0.0;
    const std::uint64_t queries = lattice_queries([&] {
      simulated_ns = machine.run(std::vector<sim::SimThread*>{&driver});
    });
    EXPECT_EQ(steps, kSteps);
    EXPECT_GT(simulated_ns, 0.0);
    EXPECT_EQ(queries, 0u) << "Machine::run queried the ordering lattice";
  }
}

// A workload's run builds its platform strategy, then simulates: the whole
// run may query the lattice exactly as often as building that strategy once.
TEST(LoweringCache, WorkloadRunQueriesTheLatticeOnlyWhileBuildingItsStrategy) {
  platform::register_builtin_platforms();
  for (sim::Arch arch : kArches) {
    const std::uint64_t per_strategy[] = {
        lattice_queries([&] {
          jvm::JvmConfig c;
          c.arch = arch;
          const jvm::FencingStrategy s(c);
        }),
        lattice_queries([&] {
          kernel::KernelConfig c;
          c.arch = arch;
          const kernel::KernelBarriers s(c);
        }),
        lattice_queries([&] {
          platform::cxx11::Cxx11Config c;
          c.arch = arch;
          const platform::cxx11::AtomicsRuntime s(c);
        }),
    };
    const char* const platforms[] = {"jvm", "kernel", "cxx11"};
    for (std::size_t i = 0; i < 3; ++i) {
      const auto p = platform::make_platform(platforms[i], arch);
      platform::BenchmarkRequest request;
      request.benchmark = p->benchmarks().front();
      const core::BenchmarkPtr bench = p->make_benchmark(request);
      SCOPED_TRACE(std::string(sim::arch_name(arch)) + " " + platforms[i] +
                   " " + request.benchmark);
      EXPECT_GT(per_strategy[i], 0u);
      double simulated_ns = 0.0;
      const std::uint64_t queries =
          lattice_queries([&] { simulated_ns = bench->run_once(0); });
      EXPECT_GT(simulated_ns, 0.0);
      EXPECT_EQ(queries, per_strategy[i]);
    }
  }
}

}  // namespace
}  // namespace wmm
