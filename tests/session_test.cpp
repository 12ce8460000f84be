// Session exception-safety and observability-record tests.
//
// The abort test covers the terminate-handler path: an exception escaping a
// scope with a live Session reaches std::terminate without unwinding, and
// the chained handler must still flush the JSONL report — manifest marked
// "aborted", counters record present — before the process dies.  The normal
// path tests pin that --histograms/--profile append schema-valid records.
// BadFlagValue runs two built binaries over malformed numeric flag values.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/profile.h"
#include "obs/record.h"
#include "session.h"

namespace wmm::bench {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Parses every line, asserts it validates, and returns them keyed by their
// "type" (last record of each type wins; these files have one of each).
std::map<std::string, obs::JsonValue> parse_records(const std::string& path) {
  std::map<std::string, obs::JsonValue> by_type;
  for (const std::string& line : read_lines(path)) {
    std::string error;
    std::optional<obs::JsonValue> doc = obs::parse_json(line, &error);
    EXPECT_TRUE(doc.has_value()) << error << "\n" << line;
    if (!doc) continue;
    const std::string verdict = obs::validate_record(*doc);
    EXPECT_TRUE(verdict.empty()) << verdict << "\n" << line;
    const obs::JsonValue* type = doc->find("type");
    EXPECT_NE(type, nullptr) << line;
    if (!type) continue;
    by_type[type->string] = std::move(*doc);
  }
  return by_type;
}

void throw_runtime_error(const char* what) { throw std::runtime_error(what); }

// Death-test body: a live Session, then an exception nothing catches.  Kept
// out of the EXPECT_DEATH macro because initializer-list commas would split
// its arguments.  The noexcept is what routes the exception to
// std::terminate *without unwinding this frame* — exactly what happens when
// an exception escapes main() — so the Session destructor does not run and
// only the terminate handler can save the report.  (gtest's own death-test
// harness would otherwise catch the exception first.)
[[noreturn]] void construct_session_and_throw(
    const std::string& json_flag) noexcept {
  const char* argv[] = {"session_abort_test", json_flag.c_str(), "--quiet"};
  Session session(3, const_cast<char**>(argv), "abort test", "");
  session.set_extra("phase", "before-throw");
  throw_runtime_error("uncaught: simulated driver failure");
  std::abort();  // unreachable; satisfies [[noreturn]]
}

TEST(SessionAbort, TerminateHandlerFlushesReport) {
  const std::string path = ::testing::TempDir() + "wmm_session_abort.jsonl";
  std::remove(path.c_str());
  const std::string json_flag = "--json=" + path;

  EXPECT_DEATH(construct_session_and_throw(json_flag), "");

  // The child died via std::terminate, but the handler flushed the report.
  std::map<std::string, obs::JsonValue> records = parse_records(path);
  ASSERT_TRUE(records.count("manifest"));
  ASSERT_TRUE(records.count("counters"));
  // set_extra fields are flattened into top-level manifest keys.
  const obs::JsonValue* aborted = records["manifest"].find("aborted");
  ASSERT_NE(aborted, nullptr);
  EXPECT_EQ(aborted->string, "true");
  const obs::JsonValue* phase = records["manifest"].find("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->string, "before-throw");
  std::remove(path.c_str());
}

TEST(Session, ProfileAndHistogramFlagsEmitValidatingRecords) {
  const std::string path = ::testing::TempDir() + "wmm_session_profile.jsonl";
  std::remove(path.c_str());
  const std::string json_flag = "--json=" + path;
  {
    const char* argv[] = {"session_profile_test", json_flag.c_str(),
                          "--profile", "--histograms", "--quiet"};
    Session session(5, const_cast<char**>(argv), "profile records test", "");
    EXPECT_TRUE(obs::profile_enabled());  // the flags arm the profiler
    // Produce at least one span so the profile record has a phase entry.
    WMM_PROFILE_SPAN(obs::Phase::AxCheck);
  }
  EXPECT_FALSE(obs::profile_enabled());  // finalize() disarms it

  std::map<std::string, obs::JsonValue> records = parse_records(path);
  ASSERT_TRUE(records.count("manifest"));
  ASSERT_TRUE(records.count("counters"));
  ASSERT_TRUE(records.count("histograms"));
  ASSERT_TRUE(records.count("profile"));
  const obs::JsonValue* schema = records["manifest"].find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_DOUBLE_EQ(schema->number, obs::kSchemaVersion);
  const obs::JsonValue* pool = records["profile"].find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_NE(pool->find("queue_depth"), nullptr);
  std::remove(path.c_str());
}

TEST(Session, FinalizeIsIdempotent) {
  const std::string path = ::testing::TempDir() + "wmm_session_idem.jsonl";
  std::remove(path.c_str());
  const std::string json_flag = "--json=" + path;
  const char* argv[] = {"session_idem_test", json_flag.c_str(), "--quiet"};
  Session session(3, const_cast<char**>(argv), "idempotent finalize", "");
  session.finalize();
  const std::vector<std::string> first = read_lines(path);
  ASSERT_FALSE(first.empty());
  session.finalize();  // second call must not rewrite or duplicate
  EXPECT_EQ(read_lines(path), first);
  std::remove(path.c_str());
}

// Numeric flags parse strictly: an empty value, a sign, trailing garbage or
// an overflow exits 2 with parse_flags' diagnostic naming the flag, instead
// of running on whatever prefix strtoull managed to read.
TEST(BadFlagValue, NumericFlagsExitTwoWithDiagnostic) {
  struct Case {
    const char* binary;
    const char* arg;
    const char* flag;
  };
  const Case cases[] = {
      {WMM_FUZZ_CONFORMANCE, "--replay=zz", "--replay"},
      {WMM_FUZZ_CONFORMANCE, "--seed=1x", "--seed"},
      {WMM_FUZZ_CONFORMANCE, "--seed=18446744073709551616", "--seed"},
      {WMM_FUZZ_CONFORMANCE, "--count=", "--count"},
      {WMM_FUZZ_CONFORMANCE, "--count=-3", "--count"},
      {WMM_FUZZ_CONFORMANCE, "--count=4294967296", "--count"},
      {WMM_FUZZ_CONFORMANCE, "--max-divergences=0x", "--max-divergences"},
      {WMM_LITMUS_RUN, "--limit=-", "--limit"},
      {WMM_LITMUS_RUN, "--limit=10k", "--limit"},
      {WMM_LITMUS_RUN, "--max-comm-edges=", "--max-comm-edges"},
      {WMM_LITMUS_RUN, "--max-comm-edges=3.5", "--max-comm-edges"},
  };
  for (const Case& c : cases) {
    EXPECT_EXIT(::execl(c.binary, c.binary, c.arg, static_cast<char*>(nullptr)),
                ::testing::ExitedWithCode(2),
                std::string("bad value for ") + c.flag + ": '")
        << c.arg;
  }
}

}  // namespace
}  // namespace wmm::bench
