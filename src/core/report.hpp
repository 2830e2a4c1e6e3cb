// Plain-text table rendering for benchmark and example output, plus a
// machine-readable metric reporter (BENCH_<name>.json) so the perf
// trajectory of the simulation kernel can be tracked across PRs.
//
// A bench records each number once, in its MetricsReport; the printed
// tables and the shape-check prose read the values back from it, so the
// JSON and the stdout cannot disagree.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace evolve::core {

/// One recorded value: an int64 count or a double, and the JSON text it
/// is written as (a non-finite double is written as `null`).
struct Metric {
  std::variant<std::int64_t, double> value;
  std::string text;

  bool is_int() const { return std::holds_alternative<std::int64_t>(value); }
  /// The count; throws std::bad_variant_access when the value is a double.
  std::int64_t count() const { return std::get<std::int64_t>(value); }
  /// The double, or the count widened.
  double real() const {
    return is_int() ? static_cast<double>(count()) : std::get<double>(value);
  }
};

/// Flat metric-name → value report. Benches build one of these and, when
/// invoked with `--json`, write it as `BENCH_<name>.json` in the working
/// directory. Insertion order is preserved in the output.
class MetricsReport {
 public:
  explicit MetricsReport(std::string bench_name);

  /// Records `metric` once; a second set of the same key throws
  /// std::logic_error.
  void set(const std::string& metric, double value);
  void set(const std::string& metric, std::int64_t value);
  void set(const std::string& metric, int value) {
    set(metric, static_cast<std::int64_t>(value));
  }

  /// The recorded value; throws std::out_of_range for an unknown key.
  const Metric& get(const std::string& metric) const;

  std::string to_json() const;

  /// Writes `BENCH_<name>.json`; returns the file path.
  std::string write() const;

 private:
  void add(const std::string& metric, Metric value);

  std::string name_;
  std::vector<std::pair<std::string, Metric>> metrics_;
};

/// The keys one table row (or one scenario) reads: `row[suffix]` is the
/// report's `prefix + suffix`.
class Row {
 public:
  Row(const MetricsReport& report, std::string prefix)
      : report_(&report), prefix_(std::move(prefix)) {}

  const Metric& operator[](const std::string& suffix) const {
    return report_->get(prefix_ + suffix);
  }

 private:
  const MetricsReport* report_;
  std::string prefix_;
};

/// A table column over a report: a header and how a row prints its cell.
struct Column {
  /// The count under `suffix`, printed as an integer.
  Column(std::string header, const std::string& suffix);
  /// `format` of the value under `suffix` (a count widened to double).
  Column(std::string header, const std::string& suffix,
         std::function<std::string(double)> format);
  /// A cell over several keys of the row.
  Column(std::string header, std::function<std::string(const Row&)> cell)
      : header(std::move(header)), cell(std::move(cell)) {}

  std::string header;
  std::function<std::string(const Row&)> cell;
};

/// Fixed-column table printed in the style of the paper's result tables.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  /// One row per (label, prefix) of `rows`: the label under
  /// `label_header`, then each column's cell read from `report` under
  /// that prefix.
  Table(std::string title, const MetricsReport& report,
        const std::string& label_header,
        const std::vector<std::pair<std::string, std::string>>& rows,
        const std::vector<Column>& columns);

  void add_row(std::vector<std::string> cells);

  /// Renders with column widths fitted to content.
  void print(std::ostream& out = std::cout) const;
  std::string to_string() const;

  int rows() const { return static_cast<int>(rows_.size()); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Column formatter printing util::fixed(v, digits) followed by `unit`.
std::function<std::string(double)> decimals(int digits, std::string unit = "");

/// Column formatter printing a nanosecond count as util::human_time.
std::string nanos(double ns);

/// True when the command line holds `flag` ("--json", "--trace", ...).
bool has_flag(int argc, char** argv, const char* flag);

}  // namespace evolve::core
