#include "sim/litmus_verdict.h"

#include <optional>

#include "cache/store.h"
#include "sim/axiomatic.h"
#include "sim/litmus.h"

namespace wmm::sim {

obs::LitmusVerdict litmus_verdict(const LitmusFile& file,
                                  const std::string& source,
                                  cache::ResultCache* store) {
  obs::LitmusVerdict v;
  v.name = file.test.name;
  v.dialect = litmus_dialect_name(file.dialect);
  v.source = source;

  // Key by the printed program: it round-trips the parsed form exactly
  // (pinned by the CI litmus-interop gate) and embeds the final-state
  // condition plus any wmm-expect directives, i.e. everything the ten
  // verdict bits depend on.
  const std::string key = store ? print_litmus(file) : std::string();
  bool* const bits[10] = {&v.op_sc, &v.op_tso, &v.op_arm,  &v.op_power,
                          &v.ax_sc, &v.ax_tso, &v.ax_arm,  &v.ax_power,
                          &v.agree, &v.expect_ok};
  if (store) {
    if (const std::optional<std::string> hit = store->get("litmus", key)) {
      if (hit->size() == 10) {
        for (std::size_t i = 0; i < 10; ++i) *bits[i] = (*hit)[i] == '1';
        return v;
      }
    }
  }

  auto op = [&](Arch a) {
    return condition_reachable(file, enumerate_outcomes(file.test, a));
  };
  auto ax = [&](Arch a) {
    return condition_reachable(file, axiomatic_outcomes(file.test, a));
  };
  v.op_sc = op(Arch::SC);
  v.op_tso = op(Arch::X86_TSO);
  v.op_arm = op(Arch::ARMV8);
  v.op_power = op(Arch::POWER7);
  v.ax_sc = ax(Arch::SC);
  v.ax_tso = ax(Arch::X86_TSO);
  v.ax_arm = ax(Arch::ARMV8);
  v.ax_power = ax(Arch::POWER7);
  v.agree = v.op_sc == v.ax_sc && v.op_tso == v.ax_tso &&
            v.op_arm == v.ax_arm && v.op_power == v.ax_power;
  v.expect_ok = true;
  for (const auto& [arch, allowed] : file.expected) {
    const bool got = arch == Arch::SC        ? v.op_sc
                     : arch == Arch::X86_TSO ? v.op_tso
                     : arch == Arch::ARMV8   ? v.op_arm
                                             : v.op_power;
    if (got != allowed) v.expect_ok = false;
  }
  if (store) {
    std::string value(10, '0');
    for (std::size_t i = 0; i < 10; ++i) value[i] = *bits[i] ? '1' : '0';
    store->put("litmus", key, value);
  }
  return v;
}

}  // namespace wmm::sim
