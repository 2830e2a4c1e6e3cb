#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <variant>

#include "core/report.hpp"
#include "util/backoff.hpp"

namespace evolve {
namespace {

// ---------------------------------------------------------------------
// Strict JSON validation
// ---------------------------------------------------------------------

TEST(ValidateJson, AcceptsRfc8259Documents) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-12.5e-3",
           "\"a \\\"quoted\\\" \\u00e9 string\"",
           R"({"a": [1, 2.5, -3e8], "b": {"c": null}, "d": ""})",
           "  [1, 2]  \n",
       }) {
    EXPECT_TRUE(util::validate_json(doc)) << doc;
  }
}

TEST(ValidateJson, RejectsNonJson) {
  for (const char* doc : {
           "",
           "{",
           "{\"a\": nan}",
           "{\"a\": NaN}",
           "{\"a\": inf}",
           "{\"a\": Infinity}",
           "{\"a\": -inf}",
           "[1, 2,]",     // trailing comma
           "{\"a\" 1}",   // missing colon
           "01",          // leading zero
           "1.",          // truncated fraction
           "\"unterminated",
           "\"bad \\x escape\"",
           "{} trailing",
           "'single'",
       }) {
    const util::JsonCheck check = util::validate_json(doc);
    EXPECT_FALSE(check.ok) << doc;
    EXPECT_FALSE(check.error.empty()) << doc;
  }
}

// ---------------------------------------------------------------------
// MetricsReport: non-finite doubles must still produce strict JSON
// ---------------------------------------------------------------------

TEST(MetricsReport, NonFiniteDoublesSerializeAsNull) {
  core::MetricsReport report("nonfinite");
  report.set("ok", 1.5);
  report.set("nan", std::nan(""));
  report.set("pos_inf", std::numeric_limits<double>::infinity());
  report.set("neg_inf", -std::numeric_limits<double>::infinity());
  report.set("count", std::int64_t{42});

  const std::string json = report.to_json();
  const util::JsonCheck check = util::validate_json(json);
  EXPECT_TRUE(check.ok) << check.error << " at offset " << check.offset
                        << " in " << json;
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pos_inf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"neg_inf\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf,"), std::string::npos) << json;
}

TEST(MetricsReport, NonFiniteDoubleKeepsItsTypeAndWritesNull) {
  core::MetricsReport report("nonfinite");
  report.set("nan", std::nan(""));
  const core::Metric& nan = report.get("nan");
  EXPECT_FALSE(nan.is_int());
  EXPECT_TRUE(std::isnan(nan.real()));
  EXPECT_EQ(nan.text, "null");
}

TEST(MetricsReport, KeepsInsertionOrderAndIntOrDoubleType) {
  core::MetricsReport report("typed");
  report.set("b_count", 7);
  report.set("a_ratio", 0.5);
  report.set("c_whole_double", 3.0);
  report.set("d_big", std::int64_t{9007199254740993});

  EXPECT_TRUE(report.get("b_count").is_int());
  EXPECT_EQ(report.get("b_count").count(), 7);
  EXPECT_FALSE(report.get("a_ratio").is_int());
  EXPECT_EQ(report.get("a_ratio").real(), 0.5);
  // A whole double stays a double and prints without a fraction.
  EXPECT_FALSE(report.get("c_whole_double").is_int());
  EXPECT_EQ(report.get("c_whole_double").text, "3");
  EXPECT_THROW(report.get("c_whole_double").count(),
               std::bad_variant_access);
  // A count keeps all 64 bits, past a double's 53.
  EXPECT_EQ(report.get("d_big").count(), 9007199254740993);
  EXPECT_EQ(report.to_json(),
            "{\n"
            "  \"bench\": \"typed\",\n"
            "  \"b_count\": 7,\n"
            "  \"a_ratio\": 0.5,\n"
            "  \"c_whole_double\": 3,\n"
            "  \"d_big\": 9007199254740993\n"
            "}\n");
}

TEST(MetricsReport, DuplicateSetAndUnknownGetThrow) {
  core::MetricsReport report("strict");
  report.set("x", 1);
  EXPECT_THROW(report.set("x", 2), std::logic_error);
  EXPECT_THROW(report.set("x", 2.5), std::logic_error);
  EXPECT_EQ(report.get("x").count(), 1);
  EXPECT_THROW(report.get("y"), std::out_of_range);
}

TEST(MetricsReport, TableFromReportMatchesHandBuiltTable) {
  core::MetricsReport report("table");
  for (const auto& [p, done, p99] :
       {std::tuple{"off_", 120, 41.256}, std::tuple{"on_", 1350, 3.5}}) {
    report.set(std::string(p) + "done", done);
    report.set(std::string(p) + "failed", 3);
    report.set(std::string(p) + "p99_ms", p99);
  }
  const core::Table from_report(
      "T: off vs on", report, "mode", {{"off", "off_"}, {"on (max 8)", "on_"}},
      {{"done", "done"},
       {"done/failed",
        [](const core::Row& r) {
          return std::to_string(r["done"].count()) + "/" +
                 std::to_string(r["failed"].count());
        }},
       {"p99", "p99_ms", core::decimals(1, " ms")}});

  core::Table by_hand("T: off vs on", {"mode", "done", "done/failed", "p99"});
  by_hand.add_row({"off", "120", "120/3", "41.3 ms"});
  by_hand.add_row({"on (max 8)", "1350", "1350/3", "3.5 ms"});
  EXPECT_EQ(from_report.to_string(), by_hand.to_string());
}

TEST(HasFlag, MatchesWholeArgumentsOnly) {
  char prog[] = "bench", json[] = "--json", traced[] = "--trace=1";
  char* argv[] = {prog, json, traced};
  EXPECT_TRUE(core::has_flag(3, argv, "--json"));
  EXPECT_FALSE(core::has_flag(3, argv, "--trace"));
  // argv[0] is the program, never a flag.
  EXPECT_FALSE(core::has_flag(3, argv, "bench"));
}

TEST(MetricsReport, TypicalReportIsStrictJson) {
  core::MetricsReport report("typical");
  report.set("ratio", 0.3333333333333333);
  report.set("tiny", 1e-300);
  report.set("huge", 1e300);
  report.set("neg", -7.25);
  report.set("zero", 0.0);
  report.set("int", std::int64_t{-9007199254740993});
  const util::JsonCheck check = util::validate_json(report.to_json());
  EXPECT_TRUE(check.ok) << check.error;
}

// ---------------------------------------------------------------------
// Saturating exponential backoff (retry-path hardening)
// ---------------------------------------------------------------------

TEST(SaturatingBackoff, DoublesUntilSaturation) {
  const util::TimeNs base = util::millis(200);
  EXPECT_EQ(util::saturating_backoff(base, 1), base);
  EXPECT_EQ(util::saturating_backoff(base, 2), 2 * base);
  EXPECT_EQ(util::saturating_backoff(base, 5), 16 * base);
  // Monotone non-decreasing in the attempt count.
  util::TimeNs prev = 0;
  for (int attempt = 1; attempt <= 200; ++attempt) {
    const util::TimeNs delay = util::saturating_backoff(base, attempt);
    EXPECT_GE(delay, prev) << attempt;
    EXPECT_GT(delay, 0) << attempt;
    EXPECT_LE(delay, util::kMaxBackoff) << attempt;
    prev = delay;
  }
  EXPECT_EQ(prev, util::kMaxBackoff);
}

TEST(SaturatingBackoff, HighAttemptCountsSaturateWithoutOverflow) {
  // The old `base << (attempt - 1)` shifted past 63 bits here: signed
  // overflow (UB) that in practice produced a negative "delay in the
  // past". The saturated form must stay pinned at the cap.
  for (int attempt : {62, 64, 100, 1000, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(util::saturating_backoff(1, attempt), util::kMaxBackoff);
    EXPECT_EQ(util::saturating_backoff(util::millis(200), attempt),
              util::kMaxBackoff);
  }
  // Even with the +25% jitter the retry paths add on top, the cap
  // cannot overflow a signed 64-bit time.
  EXPECT_GT(std::numeric_limits<util::TimeNs>::max() -
                util::kMaxBackoff / 4,
            util::kMaxBackoff);
}

TEST(SaturatingBackoff, DegenerateInputsAreSafe) {
  EXPECT_EQ(util::saturating_backoff(0, 5), 0);
  EXPECT_EQ(util::saturating_backoff(-10, 5), 0);
  EXPECT_EQ(util::saturating_backoff(util::millis(1), 0), 0);
  EXPECT_EQ(util::saturating_backoff(util::millis(1), -3), 0);
  // A huge base saturates immediately rather than shifting into the
  // sign bit.
  EXPECT_EQ(
      util::saturating_backoff(std::numeric_limits<util::TimeNs>::max(), 2),
      util::kMaxBackoff);
}

}  // namespace
}  // namespace evolve
