// Observability layer: JSON writer/parser round-trips, the counter registry,
// the Chrome trace sink's caps, the JSONL record schema (golden-schema
// checks: every emitted line type must satisfy its own validator), and the
// bench flag parser.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/harness.h"
#include "core/stats.h"
#include "flags.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/record.h"
#include "obs/trace.h"

namespace wmm::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, EscapeCoversControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(Json, FormatDoubleRoundTripsAndHandlesNonFinite) {
  for (double v : {0.0, 1.0, -2.5, 0.00330934, 1e300, 1.0 / 3.0}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, WriterParserRoundTrip) {
  JsonWriter w;
  w.begin_object()
      .kv("name", "weird \"name\"\n")
      .kv("count", std::uint64_t{42})
      .kv("ratio", 0.125)
      .kv("ok", true)
      .key("null_field")
      .null()
      .key("list")
      .begin_array()
      .value(1)
      .value(2.5)
      .value("three")
      .end_array()
      .key("nested")
      .begin_object()
      .kv("k", 0.00330934)
      .end_object()
      .end_object();

  std::string error;
  const auto v = parse_json(w.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->find("name")->string, "weird \"name\"\n");
  EXPECT_EQ(v->find("count")->number, 42.0);
  EXPECT_EQ(v->find("ratio")->number, 0.125);
  EXPECT_TRUE(v->find("ok")->boolean);
  EXPECT_TRUE(v->find("null_field")->is_null());
  const JsonValue* list = v->find("list");
  ASSERT_TRUE(list && list->is_array());
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_EQ(list->array[2].string, "three");
  const JsonValue* nested = v->find("nested");
  ASSERT_TRUE(nested && nested->is_object());
  EXPECT_DOUBLE_EQ(nested->find("k")->number, 0.00330934);
  EXPECT_EQ(v->find("absent"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, ParserHandlesEscapesAndNumbers) {
  const auto v = parse_json(R"({"s":"aA\n\"","x":-1.5e3})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("s")->string, "aA\n\"");
  EXPECT_EQ(v->find("x")->number, -1500.0);
}

// ------------------------------------------------------------ Counters

TEST(Counters, RegisterIsIdempotentAndAddAccumulates) {
  CounterRegistry reg;
  const CounterId a = reg.register_counter("test.a");
  EXPECT_EQ(reg.register_counter("test.a"), a);
  const CounterId b = reg.register_counter("test.b");
  EXPECT_NE(a, b);

  reg.add(a);
  reg.add(a, 9);
  EXPECT_EQ(reg.value(a), 10u);
  EXPECT_EQ(reg.value(b), 0u);
}

TEST(Counters, GaugeRecordsHighWaterMark) {
  CounterRegistry reg;
  const CounterId g = reg.register_gauge("test.hwm");
  reg.record_max(g, 5);
  reg.record_max(g, 3);  // lower value must not regress the mark
  reg.record_max(g, 8);
  EXPECT_EQ(reg.value(g), 8u);
}

TEST(Counters, SnapshotSortsByNameAndFiltersZeros) {
  CounterRegistry reg;
  reg.add(reg.register_counter("z.last"), 1);
  reg.add(reg.register_counter("a.first"), 2);
  reg.register_counter("m.zero");  // never incremented

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "z.last");

  const auto all = reg.snapshot(/*include_zero=*/true);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].name, "m.zero");
  EXPECT_EQ(all[1].value, 0u);
}

TEST(Counters, ResetClearsValuesButKeepsRegistrations) {
  CounterRegistry reg;
  const CounterId a = reg.register_counter("test.a");
  reg.add(a, 7);
  reg.reset_values();
  EXPECT_EQ(reg.value(a), 0u);
  EXPECT_EQ(reg.register_counter("test.a"), a);
}

TEST(Counters, InvalidIdIsANoOp) {
  CounterRegistry reg;
  reg.add(kInvalidCounter, 5);
  reg.record_max(kInvalidCounter, 5);
  EXPECT_EQ(reg.value(kInvalidCounter), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Counters, SnapshotDeltaSubtractsCountersAndKeepsGauges) {
  CounterRegistry reg;
  const CounterId c = reg.register_counter("test.count");
  const CounterId g = reg.register_gauge("test.gauge");
  reg.add(c, 10);
  reg.record_max(g, 4);
  const auto before = reg.snapshot();
  reg.add(c, 5);
  reg.record_max(g, 9);
  const auto after = reg.snapshot();

  const auto delta = snapshot_delta(before, after);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].name, "test.count");
  EXPECT_EQ(delta[0].value, 5u);  // 15 - 10
  EXPECT_EQ(delta[1].name, "test.gauge");
  EXPECT_EQ(delta[1].value, 9u);  // absolute high-water mark
}

// Each counting thread writes its own block; the tests below pin how blocks
// are handed out, reused and merged.

TEST(Counters, BlockIsReusedAfterItsThreadExits) {
  CounterRegistry reg;
  const CounterId c = reg.register_counter("test.count");
  for (int t = 0; t < 64; ++t) {
    std::thread([&reg, c] {
      for (int i = 0; i < 1000; ++i) reg.add(c);
    }).join();
    EXPECT_EQ(reg.blocks(), 1u) << "after thread " << t;
  }
  EXPECT_EQ(reg.value(c), 64000u);
}

TEST(Counters, ThreadsOutliveARegistryAndCountIntoTheNextOne) {
  constexpr int kThreads = 4;
  // Both registries live in the same storage, so the second has the first's
  // address; only the generation tells the threads' cached blocks apart.
  std::optional<CounterRegistry> reg;
  reg.emplace();
  const CounterId first_id = reg->register_counter("test.first");
  std::latch counted_first(kThreads);
  std::latch second_ready(1);
  std::latch counted_second(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) reg->add(first_id);
      counted_first.count_down();
      second_ready.wait();
      const CounterId second_id = reg->register_counter("test.second");
      for (int i = 0; i < 1000; ++i) reg->add(second_id, t + 1);
      counted_second.arrive_and_wait();  // four live blocks at once
    });
  }
  counted_first.wait();
  EXPECT_EQ(reg->value(first_id), 4000u);
  reg.reset();  // destroyed while every thread that counted into it lives
  reg.emplace();
  second_ready.count_down();
  for (std::thread& th : threads) th.join();
  const auto snap = reg->snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "test.second");
  EXPECT_EQ(snap[0].value, 1000u * (1 + 2 + 3 + 4));
  EXPECT_EQ(reg->blocks(), static_cast<std::size_t>(kThreads));
}

TEST(Counters, ResetZeroesEveryThreadsBlock) {
  constexpr int kThreads = 4;
  CounterRegistry reg;
  const CounterId c = reg.register_counter("test.count");
  const CounterId g = reg.register_gauge("test.gauge");
  std::latch counted(kThreads);
  std::latch was_reset(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      reg.add(c, 100);
      reg.record_max(g, 50);
      counted.count_down();
      was_reset.wait();
      reg.add(c);
      reg.record_max(g, 1);
    });
  }
  counted.wait();
  EXPECT_EQ(reg.value(c), 400u);
  reg.reset_values();
  EXPECT_EQ(reg.value(c), 0u);
  EXPECT_EQ(reg.value(g), 0u);
  was_reset.count_down();
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.value(c), 4u);  // nothing left over from before the reset
  EXPECT_EQ(reg.value(g), 1u);
}

TEST(Counters, GaugeMaxMergesAcrossThreads) {
  CounterRegistry reg;
  const CounterId g = reg.register_gauge("test.gauge");
  std::latch all_counted(4);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    threads.emplace_back([&, t] {
      reg.record_max(g, 10 * t);
      reg.record_max(g, 5);
      all_counted.arrive_and_wait();  // four live blocks at once
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.blocks(), 4u);
  EXPECT_EQ(reg.value(g), 40u);  // the maximum, not the sum
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].is_gauge);
  EXPECT_EQ(snap[0].value, 40u);
}

TEST(Counters, OneThreadAlternatingBetweenRegistriesKeepsBothExact) {
  CounterRegistry a;
  CounterRegistry b;
  const CounterId ca = a.register_counter("test.a");
  const CounterId cb = b.register_counter("test.b");
  for (int i = 0; i < 1000; ++i) {
    a.add(ca);
    b.add(cb, 2);
  }
  EXPECT_EQ(a.value(ca), 1000u);
  EXPECT_EQ(b.value(cb), 2000u);
  EXPECT_EQ(a.blocks(), 1u);
  EXPECT_EQ(b.blocks(), 1u);
}

// --------------------------------------------------------------- Trace

TEST(Trace, EventsSerialiseToValidTraceEventJson) {
  TraceSink sink;
  sink.set_process_name(1, "machine 1");
  sink.set_thread_name(1, 0, "cpu 0");
  sink.complete("dmb ish", "fence", 1, 0, 100.0, 8.5);
  sink.instant("flush", "sb", 1, 0, 200.0);

  std::ostringstream os;
  sink.write(os);
  std::string error;
  const auto v = parse_json(os.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  const JsonValue* events = v->find("traceEvents");
  ASSERT_TRUE(events && events->is_array());
  // 2 events + 2 metadata (process_name / thread_name) records.
  EXPECT_EQ(events->array.size(), 4u);

  bool found_complete = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_TRUE(ph && ph->is_string());
    if (ph->string == "X") {
      found_complete = true;
      EXPECT_EQ(e.find("name")->string, "dmb ish");
      EXPECT_EQ(e.find("pid")->number, 1.0);
      // ts/dur are microseconds in the trace-event format; ours are ns.
      EXPECT_DOUBLE_EQ(e.find("ts")->number, 0.1);
      EXPECT_DOUBLE_EQ(e.find("dur")->number, 0.0085);
    }
  }
  EXPECT_TRUE(found_complete);
}

TEST(Trace, CapsBoundTotalAndPerProcessEvents) {
  TraceSink::Limits limits;
  limits.max_events = 10;
  limits.max_events_per_process = 4;
  TraceSink sink(limits);

  for (int i = 0; i < 20; ++i) sink.instant("e", "c", 1, 0, i);
  EXPECT_EQ(sink.event_count(), 4u);  // per-process cap
  for (int i = 0; i < 20; ++i) sink.instant("e", "c", 2, 0, i);
  EXPECT_EQ(sink.event_count(), 8u);
  for (int i = 0; i < 20; ++i) sink.instant("e", "c", 100 + i, 0, i);
  EXPECT_EQ(sink.event_count(), 10u);  // global cap
  EXPECT_TRUE(sink.truncated());
}

// ------------------------------------------------------- Record schema

core::RunResult sample_run() {
  core::RunResult r;
  r.name = "h2";
  r.raw_times = {10.0, 11.0, 10.5, 10.2, 10.8, 10.4};
  r.times = core::summarize(r.raw_times);
  return r;
}

// Every line type the Session emits must parse and satisfy validate_record —
// the golden-schema contract report_diff and CI rely on.
TEST(RecordSchema, AllLineTypesValidate) {
  Manifest m;
  m.binary = "obs_test";
  m.title = "golden schema";
  m.paper_ref = "fig. 0";
  m.argv = "obs_test --json=x.jsonl";
  m.extra["arch"] = "armv8";

  core::Comparison cmp;
  cmp.value = 0.97;
  cmp.min = 0.95;
  cmp.max = 0.99;
  cmp.ci95 = 0.01;

  core::SweepResult sweep;
  sweep.benchmark = "h2";
  sweep.code_path = "all-barriers";
  sweep.points = {{10.0, 0.99}, {20.0, 0.97}};
  sweep.fit.k = 0.0033;
  sweep.fit.stderr_k = 0.0002;
  sweep.fit.converged = true;

  CounterRegistry reg;
  reg.add(reg.register_counter("sim.fence.dmb_ish"), 123);

  const std::vector<std::string> lines = {
      manifest_line(m),
      run_line("armv8", sample_run(), 0.15),
      comparison_line("armv8", "h2", "base", "nop-padded", cmp),
      sweep_line("armv8", sweep),
      counters_line(reg.snapshot()),
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto v = parse_json(line, &error);
    ASSERT_TRUE(v.has_value()) << error << "\n" << line;
    EXPECT_EQ(validate_record(*v), "") << line;
  }
}

TEST(RecordSchema, ValidatorRejectsTamperedRecords) {
  const std::string line = run_line("armv8", sample_run(), 0.15);

  // Unknown type.
  auto v = parse_json(R"({"type":"bogus"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(validate_record(*v), "");

  // Required key removed.
  std::string broken = line;
  const auto pos = broken.find("\"geomean\"");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, std::strlen("\"geomean\""), "\"renamed\"");
  v = parse_json(broken);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(validate_record(*v), "");

  // Not an object at all.
  v = parse_json("[1,2,3]");
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(validate_record(*v), "");
}

TEST(RecordSchema, RunLineCarriesCvAndNoisyFlag) {
  core::RunResult quiet_run = sample_run();
  const auto v = parse_json(run_line("armv8", quiet_run, 0.15));
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->find("cv")->number, quiet_run.times.cv());
  EXPECT_FALSE(v->find("noisy")->boolean);

  // A scattered run crosses the threshold and is flagged.
  core::RunResult noisy_run;
  noisy_run.name = "noisy";
  noisy_run.raw_times = {10.0, 30.0, 5.0, 40.0, 8.0, 25.0};
  noisy_run.times = core::summarize(noisy_run.raw_times);
  const auto n = parse_json(run_line("armv8", noisy_run, 0.15));
  ASSERT_TRUE(n.has_value());
  EXPECT_TRUE(n->find("noisy")->boolean);
}

TEST(RecordSchema, RecordsAreByteIdenticalAcrossEmissions) {
  const core::RunResult r = sample_run();
  EXPECT_EQ(run_line("armv8", r, 0.15), run_line("armv8", r, 0.15));
}

// --------------------------------------------------------------- Flags

TEST(Flags, ParsesCommonFlagsExtrasAndPositionals) {
  int depth = 0;
  const std::vector<bench::FlagSpec> extra = {
      {"--depth", "N", "search depth",
       [&](const std::string& v) {
         depth = std::stoi(v);
         return depth > 0;
       }},
  };
  const char* argv[] = {"prog",        "--json=out.jsonl", "--trace=t.json",
                        "--counters",  "--quiet",          "--depth=7",
                        "base.jsonl",  "test.jsonl"};
  const bench::CommonFlags flags =
      bench::parse_flags(8, const_cast<char**>(argv), "test", extra);
  EXPECT_EQ(flags.json_path, "out.jsonl");
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_TRUE(flags.counters);
  EXPECT_TRUE(flags.quiet);
  EXPECT_EQ(depth, 7);
  ASSERT_EQ(flags.positional.size(), 2u);
  EXPECT_EQ(flags.positional[0], "base.jsonl");
  EXPECT_EQ(flags.positional[1], "test.jsonl");
}

TEST(Flags, DefaultsAreOffWithNoArguments) {
  const char* argv[] = {"prog"};
  const bench::CommonFlags flags =
      bench::parse_flags(1, const_cast<char**>(argv), "test");
  EXPECT_TRUE(flags.json_path.empty());
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_FALSE(flags.counters);
  EXPECT_FALSE(flags.quiet);
  EXPECT_TRUE(flags.positional.empty());
}

TEST(Flags, UsageListsCommonAndExtraFlags) {
  const std::vector<bench::FlagSpec> extra = {
      {"--depth", "N", "search depth", [](const std::string&) { return true; }},
  };
  std::ostringstream os;
  bench::print_usage(os, "prog", "a test binary", extra);
  const std::string text = os.str();
  EXPECT_NE(text.find("--depth=N"), std::string::npos);
  EXPECT_NE(text.find("--json=FILE"), std::string::npos);
  EXPECT_NE(text.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace wmm::obs
