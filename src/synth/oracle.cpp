#include "synth/oracle.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "sim/axiomatic.h"

namespace wmm::synth {

SynthProblem make_problem(const sim::LitmusTest& test, sim::Arch arch,
                          std::vector<sim::Outcome> forbidden) {
  SynthProblem p;
  p.arch = arch;
  p.forbidden = std::move(forbidden);
  p.skeleton = test;
  p.skeleton.threads.clear();
  for (std::size_t tid = 0; tid < test.threads.size(); ++tid) {
    const sim::LitmusThread& thread = test.threads[tid];
    sim::LitmusThread out;
    for (std::size_t i = 0; i < thread.instrs.size(); ++i) {
      if (i > 0) {
        Slot s;
        s.idiom = thread.instrs[i - 1].type == sim::AccessType::Read
                      ? SiteIdiom::PostLoad
                      : SiteIdiom::Standalone;
        s.ref = {static_cast<int>(tid), static_cast<int>(out.instrs.size())};
        s.menu.push_back(sim::FenceKind::None);
        const std::vector<sim::FenceKind>& menu = fence_menu(arch, s.idiom);
        s.menu.insert(s.menu.end(), menu.begin(), menu.end());
        out.instrs.push_back(sim::LitmusInstr::barrier(sim::FenceKind::None));
        p.slots.push_back(std::move(s));
      }
      out.instrs.push_back(thread.instrs[i]);
    }
    p.skeleton.threads.push_back(std::move(out));
  }
  return p;
}

std::vector<sim::Outcome> sc_forbidden_outcomes(const sim::LitmusTest& test,
                                                sim::Arch arch) {
  const std::set<sim::Outcome> relaxed = sim::axiomatic_outcomes(test, arch);
  const std::set<sim::Outcome> sc =
      sim::axiomatic_outcomes(test, sim::Arch::SC);
  std::vector<sim::Outcome> forbidden;
  std::set_difference(relaxed.begin(), relaxed.end(), sc.begin(), sc.end(),
                      std::back_inserter(forbidden));
  return forbidden;
}

struct SynthOracle::Impl {
  std::vector<sim::Outcome> forbidden;
  sim::AxiomaticEvaluator evaluator;
  std::map<std::vector<sim::FenceKind>, bool> memo;
  std::uint64_t queries = 0;
};

SynthOracle::SynthOracle(const SynthProblem& problem) {
  std::vector<sim::FenceSlotRef> refs;
  refs.reserve(problem.slots.size());
  for (const Slot& s : problem.slots) refs.push_back(s.ref);
  impl_ = std::make_unique<Impl>(Impl{
      problem.forbidden,
      sim::AxiomaticEvaluator(problem.skeleton, problem.arch, std::move(refs)),
      {},
      0});
}

SynthOracle::~SynthOracle() = default;
SynthOracle::SynthOracle(SynthOracle&&) noexcept = default;
SynthOracle& SynthOracle::operator=(SynthOracle&&) noexcept = default;

bool SynthOracle::correct(const Assignment& a) {
  auto [it, fresh] = impl_->memo.try_emplace(a.kinds, false);
  if (!fresh) return it->second;
  ++impl_->queries;
  impl_->evaluator.set_assignment(a.kinds);
  const bool ok = std::none_of(
      impl_->forbidden.begin(), impl_->forbidden.end(),
      [&](const sim::Outcome& o) { return impl_->evaluator.allowed(o); });
  it->second = ok;
  return ok;
}

std::uint64_t SynthOracle::queries() const { return impl_->queries; }

}  // namespace wmm::synth
