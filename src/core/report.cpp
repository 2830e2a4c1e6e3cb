#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace evolve::core {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("table needs columns");
}

Column::Column(std::string header, const std::string& suffix)
    : header(std::move(header)),
      cell([suffix](const Row& row) {
        return std::to_string(row[suffix].count());
      }) {}

Column::Column(std::string header, const std::string& suffix,
               std::function<std::string(double)> format)
    : header(std::move(header)),
      cell([suffix, format = std::move(format)](const Row& row) {
        return format(row[suffix].real());
      }) {}

Table::Table(std::string title, const MetricsReport& report,
             const std::string& label_header,
             const std::vector<std::pair<std::string, std::string>>& rows,
             const std::vector<Column>& columns)
    : Table(std::move(title), {label_header}) {
  for (const Column& column : columns) columns_.push_back(column.header);
  for (const auto& [label, prefix] : rows) {
    const Row row(report, prefix);
    std::vector<std::string> cells = {label};
    for (const Column& column : columns) cells.push_back(column.cell(row));
    add_row(std::move(cells));
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    throw std::invalid_argument("row width does not match columns");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  out << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << cells[c];
      out << std::string(widths[c] - cells[c].size(), ' ');
    }
    out << "\n";
  };
  emit_row(columns_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& out) const { out << to_string(); }

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

MetricsReport::MetricsReport(std::string bench_name)
    : name_(std::move(bench_name)) {
  if (name_.empty()) throw std::invalid_argument("bench name required");
}

void MetricsReport::set(const std::string& metric, double value) {
  // JSON has no NaN/Infinity; %g would print them verbatim and corrupt
  // the whole document. Emit null so the file stays parseable and the
  // missing value is visible downstream.
  if (!std::isfinite(value)) {
    add(metric, Metric{value, "null"});
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  add(metric, Metric{value, buffer});
}

void MetricsReport::set(const std::string& metric, std::int64_t value) {
  add(metric, Metric{value, std::to_string(value)});
}

void MetricsReport::add(const std::string& metric, Metric value) {
  for (const auto& [key, recorded] : metrics_) {
    if (key == metric) throw std::logic_error("metric set twice: " + metric);
  }
  metrics_.emplace_back(metric, std::move(value));
}

const Metric& MetricsReport::get(const std::string& metric) const {
  for (const auto& [key, value] : metrics_) {
    if (key == metric) return value;
  }
  throw std::out_of_range("no metric " + metric + " in " + name_);
}

std::string MetricsReport::to_json() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << json_escape(name_) << "\"";
  for (const auto& [metric, value] : metrics_) {
    out << ",\n  \"" << json_escape(metric) << "\": " << value.text;
  }
  out << "\n}\n";
  return out.str();
}

std::string MetricsReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << to_json();
  return path;
}

std::function<std::string(double)> decimals(int digits, std::string unit) {
  return [digits, unit = std::move(unit)](double v) {
    return util::fixed(v, digits) + unit;
  };
}

std::string nanos(double ns) {
  return util::human_time(static_cast<util::TimeNs>(ns));
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace evolve::core
