#include "obs/record.h"

#include <ctime>

#ifndef WMM_GIT_SHA
#define WMM_GIT_SHA "unknown"
#endif

namespace wmm::obs {

std::string build_git_sha() { return WMM_GIT_SHA; }

std::string build_compiler() {
#if defined(__VERSION__) && defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__VERSION__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string current_timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string manifest_line(const Manifest& m) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "manifest");
  w.kv("schema", kSchemaVersion);
  w.kv("tool", "wmmbench");
  w.kv("binary", m.binary);
  w.kv("title", m.title);
  w.kv("paper_ref", m.paper_ref);
  w.kv("argv", m.argv);
  w.kv("git_sha", build_git_sha());
  w.kv("compiler", build_compiler());
  w.kv("timestamp", current_timestamp_utc());
  w.kv("wall_clock_s", m.wall_clock_s);
  w.key("run_options").begin_object();
  w.kv("warmups", static_cast<std::uint64_t>(m.run_options.warmups));
  w.kv("samples", static_cast<std::uint64_t>(m.run_options.samples));
  w.kv("cv_warn_threshold", m.run_options.cv_warn_threshold);
  w.end_object();
  for (const auto& [k, v] : m.extra) w.kv(k, v);
  w.end_object();
  return w.take();
}

namespace {

void write_summary(JsonWriter& w, const core::SampleSummary& s) {
  w.kv("n", static_cast<std::uint64_t>(s.n));
  w.kv("mean", s.mean);
  w.kv("geomean", s.geomean);
  w.kv("stddev", s.stddev);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("ci95", s.ci95);
  w.kv("cv", s.cv());
}

}  // namespace

std::string run_line(const std::string& context, const core::RunResult& result,
                     double cv_warn_threshold) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "run");
  w.kv("context", context);
  w.kv("name", result.name);
  write_summary(w, result.times);
  w.kv("noisy", cv_warn_threshold > 0.0 &&
                    result.times.cv() > cv_warn_threshold);
  w.key("raw_times").begin_array();
  for (double t : result.raw_times) w.value(t);
  w.end_array();
  w.end_object();
  return w.take();
}

std::string comparison_line(const std::string& context,
                            const std::string& benchmark,
                            const std::string& base, const std::string& test,
                            const core::Comparison& cmp) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "comparison");
  w.kv("context", context);
  w.kv("benchmark", benchmark);
  w.kv("base", base);
  w.kv("test", test);
  w.kv("value", cmp.value);
  w.kv("min", cmp.min);
  w.kv("max", cmp.max);
  w.kv("ci95", cmp.ci95);
  w.kv("significant", cmp.significant());
  w.end_object();
  return w.take();
}

std::string sweep_line(const std::string& context,
                       const core::SweepResult& sweep) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "sweep");
  w.kv("context", context);
  w.kv("benchmark", sweep.benchmark);
  w.kv("code_path", sweep.code_path);
  w.key("points").begin_array();
  for (const core::SweepPoint& p : sweep.points) {
    w.begin_object();
    w.kv("cost_ns", p.cost_ns);
    w.kv("rel_perf", p.rel_perf);
    w.end_object();
  }
  w.end_array();
  w.key("fit").begin_object();
  w.kv("k", sweep.fit.k);
  w.kv("stderr_k", sweep.fit.stderr_k);
  w.kv("chi2", sweep.fit.chi2);
  w.kv("converged", sweep.fit.converged);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string throughput_line(const Throughput& t) {
  const double wall = t.wall_s > 0.0 ? t.wall_s : 0.0;
  const long long probes = t.cache_hits + t.cache_misses;
  JsonWriter w;
  w.begin_object();
  w.kv("type", "throughput");
  w.kv("context", t.context);
  w.kv("threads", static_cast<std::uint64_t>(t.threads < 0 ? 0 : t.threads));
  w.kv("programs", static_cast<double>(t.programs));
  w.kv("outcomes", static_cast<double>(t.outcomes));
  w.kv("wall_s", t.wall_s);
  w.kv("programs_per_s",
       wall > 0.0 ? static_cast<double>(t.programs) / wall : 0.0);
  w.kv("outcomes_per_s",
       wall > 0.0 ? static_cast<double>(t.outcomes) / wall : 0.0);
  w.kv("cache_hits", static_cast<double>(t.cache_hits));
  w.kv("cache_misses", static_cast<double>(t.cache_misses));
  w.kv("cache_hit_rate",
       probes > 0 ? static_cast<double>(t.cache_hits) /
                        static_cast<double>(probes)
                  : 0.0);
  w.end_object();
  return w.take();
}

std::string litmus_line(const LitmusVerdict& v) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "litmus");
  w.kv("name", v.name);
  w.kv("dialect", v.dialect);
  w.kv("source", v.source);
  w.key("operational").begin_object();
  w.kv("sc", v.op_sc);
  w.kv("tso", v.op_tso);
  w.kv("arm", v.op_arm);
  w.kv("power", v.op_power);
  w.end_object();
  w.key("axiomatic").begin_object();
  w.kv("sc", v.ax_sc);
  w.kv("tso", v.ax_tso);
  w.kv("arm", v.ax_arm);
  w.kv("power", v.ax_power);
  w.end_object();
  w.kv("agree", v.agree);
  w.kv("expect_ok", v.expect_ok);
  w.end_object();
  return w.take();
}

std::string cache_line(const CacheActivity& c) {
  const std::uint64_t probes = c.hits + c.misses;
  JsonWriter w;
  w.begin_object();
  w.kv("type", "cache");
  w.kv("root", c.root);
  w.kv("schema_hash", c.schema_hash);
  w.kv("hits", c.hits);
  w.kv("misses", c.misses);
  w.kv("writes", c.writes);
  w.kv("evictions", c.evictions);
  w.kv("corrupt", c.corrupt);
  w.kv("entries", c.entries);
  w.kv("bytes", c.bytes);
  w.kv("hit_rate", probes > 0 ? static_cast<double>(c.hits) /
                                    static_cast<double>(probes)
                              : 0.0);
  w.end_object();
  return w.take();
}

std::string synth_line(const SynthRecord& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "synth");
  w.kv("name", r.name);
  w.kv("arch", r.arch);
  w.kv("mode", r.mode);
  w.kv("cost_model", r.cost_model);
  w.kv("slots", r.slots);
  w.kv("feasible", r.feasible);
  w.kv("assignment", r.assignment);
  w.kv("cost_ns", r.cost_ns);
  w.key("ranked").begin_array();
  for (const auto& [assignment, cost_ns] : r.ranked) {
    w.begin_object();
    w.kv("assignment", assignment);
    w.kv("cost_ns", cost_ns);
    w.end_object();
  }
  w.end_array();
  w.kv("candidates", r.candidates);
  w.kv("oracle_queries", r.oracle_queries);
  w.kv("pruned_correct", r.pruned_correct);
  w.kv("pruned_incorrect", r.pruned_incorrect);
  w.end_object();
  return w.take();
}

std::string counters_line(
    const std::vector<CounterRegistry::Entry>& entries) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "counters");
  w.key("values").begin_object();
  for (const auto& e : entries) w.kv(e.name, e.value);
  w.end_object();
  w.end_object();
  return w.take();
}

std::string histograms_line(const std::vector<HistogramSnapshot>& hists) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "histograms");
  w.key("values").begin_object();
  for (const HistogramSnapshot& h : hists) {
    w.key(h.name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("min", h.min);
    w.kv("max", h.max);
    w.kv("p50", h.p50());
    w.kv("p90", h.p90());
    w.kv("p99", h.p99());
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(b));
      w.value(h.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

std::string profile_line(const PhaseSnapshot& phases,
                         const PoolStats::Snapshot& pool) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "profile");
  w.key("phases").begin_object();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (phases[i].count == 0) continue;
    w.key(phase_name(static_cast<Phase>(i))).begin_object();
    w.kv("count", phases[i].count);
    w.kv("total_ns", phases[i].total_ns);
    w.kv("self_ns", phases[i].self_ns);
    w.end_object();
  }
  w.end_object();
  w.key("pool").begin_object();
  w.kv("tasks", pool.tasks);
  w.kv("steals", pool.steals);
  w.kv("waves", pool.waves);
  w.kv("queue_depth", static_cast<std::int64_t>(pool.queue_depth));
  w.kv("queue_depth_hwm", pool.queue_depth_hwm);
  w.kv("worker_busy_ns", pool.worker_busy_ns);
  w.end_object();
  w.end_object();
  return w.take();
}

namespace {

struct KeySpec {
  const char* key;
  JsonValue::Kind kind;
};

std::string check_keys(const JsonValue& record, const char* type,
                       std::initializer_list<KeySpec> keys) {
  for (const KeySpec& spec : keys) {
    const JsonValue* v = record.find(spec.key);
    if (!v) {
      return std::string(type) + " record missing required key '" + spec.key +
             "'";
    }
    // Booleans may legitimately be either literal; everything else must match
    // the declared kind.
    if (spec.kind == JsonValue::Kind::Bool && v->is_bool()) continue;
    if (v->kind != spec.kind) {
      return std::string(type) + " record key '" + spec.key +
             "' has wrong type";
    }
  }
  return {};
}

}  // namespace

std::string validate_record(const JsonValue& record) {
  using K = JsonValue::Kind;
  if (!record.is_object()) return "record is not a JSON object";
  const JsonValue* type = record.find("type");
  if (!type || !type->is_string()) return "record missing string key 'type'";
  const std::string& t = type->string;

  if (t == "manifest") {
    std::string err = check_keys(
        record, "manifest",
        {{"schema", K::Number},
         {"binary", K::String},
         {"title", K::String},
         {"paper_ref", K::String},
         {"argv", K::String},
         {"git_sha", K::String},
         {"compiler", K::String},
         {"timestamp", K::String},
         {"wall_clock_s", K::Number},
         {"run_options", K::Object}});
    if (!err.empty()) return err;
    const double schema = record.find("schema")->number;
    if (schema < kMinSchemaVersion || schema > kSchemaVersion) {
      return "manifest has unsupported schema version";
    }
    return {};
  }
  if (t == "run") {
    return check_keys(record, "run",
                      {{"context", K::String},
                       {"name", K::String},
                       {"n", K::Number},
                       {"mean", K::Number},
                       {"geomean", K::Number},
                       {"stddev", K::Number},
                       {"min", K::Number},
                       {"max", K::Number},
                       {"ci95", K::Number},
                       {"cv", K::Number},
                       {"noisy", K::Bool},
                       {"raw_times", K::Array}});
  }
  if (t == "comparison") {
    return check_keys(record, "comparison",
                      {{"context", K::String},
                       {"benchmark", K::String},
                       {"base", K::String},
                       {"test", K::String},
                       {"value", K::Number},
                       {"min", K::Number},
                       {"max", K::Number},
                       {"ci95", K::Number},
                       {"significant", K::Bool}});
  }
  if (t == "sweep") {
    std::string err = check_keys(record, "sweep",
                                 {{"context", K::String},
                                  {"benchmark", K::String},
                                  {"code_path", K::String},
                                  {"points", K::Array},
                                  {"fit", K::Object}});
    if (!err.empty()) return err;
    const JsonValue& fit = *record.find("fit");
    err = check_keys(fit, "sweep.fit",
                     {{"k", K::Number},
                      {"stderr_k", K::Number},
                      {"chi2", K::Number},
                      {"converged", K::Bool}});
    if (!err.empty()) return err;
    for (const JsonValue& p : record.find("points")->array) {
      if (!p.is_object()) return "sweep point is not an object";
      err = check_keys(p, "sweep.point",
                       {{"cost_ns", K::Number}, {"rel_perf", K::Number}});
      if (!err.empty()) return err;
    }
    return {};
  }
  if (t == "throughput") {
    return check_keys(record, "throughput",
                      {{"context", K::String},
                       {"threads", K::Number},
                       {"programs", K::Number},
                       {"outcomes", K::Number},
                       {"wall_s", K::Number},
                       {"programs_per_s", K::Number},
                       {"outcomes_per_s", K::Number},
                       {"cache_hits", K::Number},
                       {"cache_misses", K::Number},
                       {"cache_hit_rate", K::Number}});
  }
  if (t == "litmus") {
    std::string err = check_keys(record, "litmus",
                                 {{"name", K::String},
                                  {"dialect", K::String},
                                  {"source", K::String},
                                  {"operational", K::Object},
                                  {"axiomatic", K::Object},
                                  {"agree", K::Bool},
                                  {"expect_ok", K::Bool}});
    if (!err.empty()) return err;
    for (const char* side : {"operational", "axiomatic"}) {
      err = check_keys(*record.find(side),
                       side == std::string("operational") ? "litmus.operational"
                                                          : "litmus.axiomatic",
                       {{"sc", K::Bool},
                        {"tso", K::Bool},
                        {"arm", K::Bool},
                        {"power", K::Bool}});
      if (!err.empty()) return err;
    }
    return {};
  }
  if (t == "sites") {
    std::string err = check_keys(record, "sites",
                                 {{"platform", K::String},
                                  {"arch", K::String},
                                  {"injected_slots", K::Number},
                                  {"sites", K::Array}});
    if (!err.empty()) return err;
    for (const JsonValue& s : record.find("sites")->array) {
      if (!s.is_object()) return "sites entry is not an object";
      err = check_keys(s, "sites.site",
                       {{"id", K::String},
                        {"slot", K::Number},
                        {"counter", K::String},
                        {"lowering", K::Object},
                        {"injection", K::Object}});
      if (!err.empty()) return err;
      err = check_keys(*s.find("lowering"), "sites.site.lowering",
                       {{"arm", K::String},
                        {"power", K::String},
                        {"x86", K::String},
                        {"sc", K::String}});
      if (!err.empty()) return err;
      err = check_keys(*s.find("injection"), "sites.site.injection",
                       {{"nops", K::Number},
                        {"loop_iterations", K::Number},
                        {"stack_spill", K::Bool}});
      if (!err.empty()) return err;
    }
    return {};
  }
  if (t == "counters") {
    std::string err = check_keys(record, "counters", {{"values", K::Object}});
    if (!err.empty()) return err;
    for (const auto& [name, v] : record.find("values")->object) {
      if (!v.is_number()) {
        return "counters value '" + name + "' is not a number";
      }
    }
    return {};
  }
  if (t == "histograms") {
    std::string err = check_keys(record, "histograms", {{"values", K::Object}});
    if (!err.empty()) return err;
    for (const auto& [name, v] : record.find("values")->object) {
      if (!v.is_object()) {
        return "histograms value '" + name + "' is not an object";
      }
      err = check_keys(v, "histograms.value",
                       {{"count", K::Number},
                        {"sum", K::Number},
                        {"min", K::Number},
                        {"max", K::Number},
                        {"p50", K::Number},
                        {"p90", K::Number},
                        {"p99", K::Number},
                        {"buckets", K::Array}});
      if (!err.empty()) return err;
      for (const JsonValue& pair : v.find("buckets")->array) {
        if (!pair.is_array() || pair.array.size() != 2 ||
            !pair.array[0].is_number() || !pair.array[1].is_number()) {
          return "histograms value '" + name +
                 "' bucket entry is not a [bucket_index, count] pair";
        }
      }
    }
    return {};
  }
  if (t == "profile") {
    std::string err = check_keys(
        record, "profile", {{"phases", K::Object}, {"pool", K::Object}});
    if (!err.empty()) return err;
    for (const auto& [name, v] : record.find("phases")->object) {
      if (!v.is_object()) {
        return "profile phase '" + name + "' is not an object";
      }
      err = check_keys(v, "profile.phase",
                       {{"count", K::Number},
                        {"total_ns", K::Number},
                        {"self_ns", K::Number}});
      if (!err.empty()) return err;
    }
    return check_keys(*record.find("pool"), "profile.pool",
                      {{"tasks", K::Number},
                       {"steals", K::Number},
                       {"waves", K::Number},
                       {"queue_depth", K::Number},
                       {"queue_depth_hwm", K::Number},
                       {"worker_busy_ns", K::Number}});
  }
  if (t == "cache") {
    return check_keys(record, "cache",
                      {{"root", K::String},
                       {"schema_hash", K::Number},
                       {"hits", K::Number},
                       {"misses", K::Number},
                       {"writes", K::Number},
                       {"evictions", K::Number},
                       {"corrupt", K::Number},
                       {"entries", K::Number},
                       {"bytes", K::Number},
                       {"hit_rate", K::Number}});
  }
  if (t == "synth") {
    std::string err = check_keys(record, "synth",
                                 {{"name", K::String},
                                  {"arch", K::String},
                                  {"mode", K::String},
                                  {"cost_model", K::String},
                                  {"slots", K::Number},
                                  {"feasible", K::Bool},
                                  {"assignment", K::String},
                                  {"cost_ns", K::Number},
                                  {"ranked", K::Array},
                                  {"candidates", K::Number},
                                  {"oracle_queries", K::Number},
                                  {"pruned_correct", K::Number},
                                  {"pruned_incorrect", K::Number}});
    if (!err.empty()) return err;
    for (const JsonValue& r : record.find("ranked")->array) {
      if (!r.is_object()) return "synth ranked entry is not an object";
      err = check_keys(r, "synth.ranked",
                       {{"assignment", K::String}, {"cost_ns", K::Number}});
      if (!err.empty()) return err;
    }
    return {};
  }
  return "unknown record type '" + t + "'";
}

}  // namespace wmm::obs
