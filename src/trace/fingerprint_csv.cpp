#include "trace/fingerprint_csv.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <utility>

#include "trace/csv.hpp"

namespace iup::trace {

namespace {

const std::vector<std::string>& fingerprint_columns() {
  static const std::vector<std::string> columns = {
      "link", "cell", "source_id", "technology",
      "rss_db", "mask", "cell_x_m", "cell_y_m"};
  return columns;
}

api::Status validate_table(const FingerprintTable& table) {
  const std::size_t m = table.database.rows();
  const std::size_t n = table.database.cols();
  if (m == 0 || n == 0) {
    return api::Status::invalid_argument(
        "fingerprint export: empty database");
  }
  if (table.mask.rows() != m || table.mask.cols() != n) {
    return api::Status::invalid_argument(
        "fingerprint export: mask is " + std::to_string(table.mask.rows()) +
        "x" + std::to_string(table.mask.cols()) + " but the database is " +
        std::to_string(m) + "x" + std::to_string(n));
  }
  if (table.sources.size() != m) {
    return api::Status::invalid_argument(
        "fingerprint export: " + std::to_string(table.sources.size()) +
        " sources for " + std::to_string(m) + " links");
  }
  if (table.cell_centers.size() != n) {
    return api::Status::invalid_argument(
        "fingerprint export: " + std::to_string(table.cell_centers.size()) +
        " cell centers for " + std::to_string(n) + " cells");
  }
  for (const double v : table.database.data()) {
    if (!std::isfinite(v)) {
      return api::Status::invalid_argument(
          "fingerprint export: database contains non-finite RSS");
    }
  }
  return {};
}

}  // namespace

api::Status export_fingerprint_csv(const FingerprintTable& table,
                                   std::ostream& out) {
  if (api::Status valid = validate_table(table); !valid.ok()) return valid;
  out << "link,cell,source_id,technology,rss_db,mask,cell_x_m,cell_y_m\n";
  for (std::size_t i = 0; i < table.database.rows(); ++i) {
    const SourceInfo& source = table.sources[i];
    for (std::size_t j = 0; j < table.database.cols(); ++j) {
      out << i << ',' << j << ',' << source.id.value() << ','
          << to_string(source.technology) << ','
          << format_double(table.database(i, j)) << ','
          << (table.mask(i, j) != 0.0 ? 1 : 0) << ','
          << format_double(table.cell_centers[j].x) << ','
          << format_double(table.cell_centers[j].y) << '\n';
    }
  }
  if (!out) return api::Status::internal("fingerprint export: write failed");
  return {};
}

api::Status export_fingerprint_csv(const api::FingerprintSnapshot& snapshot,
                                   const std::vector<geom::Point2>& centers,
                                   std::ostream& out) {
  FingerprintTable table;
  table.database = snapshot.database();
  table.mask = snapshot.mask();
  table.sources = snapshot.sources();
  if (table.sources.empty()) {
    // Legacy source-less snapshot: the degenerate table keeps the file
    // self-describing (and re-importable as a multi-radio site).
    table.sources = single_technology_sources(table.database.rows());
  }
  table.cell_centers = centers;
  return export_fingerprint_csv(table, out);
}

api::Result<FingerprintTable> import_fingerprint_csv(std::istream& in,
                                                     std::string label) {
  CsvReader reader(in, std::move(label), fingerprint_columns());
  if (!reader.status().ok()) return reader.status();

  // First pass collects rows; dimensions are max(id)+1 once the row set
  // is proven rectangular.
  struct Row {
    std::size_t link, cell;
    SourceInfo source;
    double rss, mask;
    geom::Point2 center;
    std::size_t line;
  };
  std::vector<Row> rows;
  std::size_t max_link = 0, max_cell = 0;
  while (reader.next_row()) {
    Row row;
    const auto link = reader.field_u64(0);
    if (!link.ok()) return link.status();
    const auto cell = reader.field_u64(1);
    if (!cell.ok()) return cell.status();
    const auto source_id = reader.field_u64(2);
    if (!source_id.ok()) return source_id.status();
    Technology technology;
    if (!technology_from_string(reader.field(3), technology)) {
      return api::Status::invalid_argument(
          reader.where() + "column 'technology' has unknown value '" +
          std::string(reader.field(3)) + "' (expected wifi/ble/lora)");
    }
    const auto rss = reader.field_double(4);
    if (!rss.ok()) return rss.status();
    if (!std::isfinite(rss.value())) {
      return api::Status::invalid_argument(
          reader.where() + "column 'rss_db' is non-finite");
    }
    const auto mask = reader.field_double(5);
    if (!mask.ok()) return mask.status();
    if (mask.value() != 0.0 && mask.value() != 1.0) {
      return api::Status::invalid_argument(
          reader.where() + "column 'mask' must be 0 or 1, got '" +
          std::string(reader.field(5)) + "'");
    }
    const auto x = reader.field_double(6);
    if (!x.ok()) return x.status();
    const auto y = reader.field_double(7);
    if (!y.ok()) return y.status();
    if (!std::isfinite(x.value()) || !std::isfinite(y.value())) {
      return api::Status::invalid_argument(
          reader.where() + "cell center coordinates are non-finite");
    }
    row.link = static_cast<std::size_t>(link.value());
    row.cell = static_cast<std::size_t>(cell.value());
    row.source = SourceInfo{SourceId(source_id.value()), technology};
    row.rss = rss.value();
    row.mask = mask.value();
    row.center = geom::Point2{x.value(), y.value()};
    row.line = reader.line();
    if (row.link > max_link) max_link = row.link;
    if (row.cell > max_cell) max_cell = row.cell;
    rows.push_back(row);
  }
  if (!reader.status().ok()) return reader.status();
  if (rows.empty()) {
    return api::Status::invalid_argument(reader.where() +
                                         "no fingerprint rows");
  }

  // A complete table has exactly (max_link + 1) * (max_cell + 1) rows.
  // Ids that many rows cannot fill fail here, before anything is sized from
  // them (overflow-safe: max_link + 1 <= rows.size() in the division);
  // more rows than that must repeat a pair, which the loop below rejects.
  if (max_link >= rows.size() ||
      max_cell >= rows.size() / (max_link + 1)) {
    return api::Status::invalid_argument(
        "fingerprint table is not rectangular: " +
        std::to_string(rows.size()) + " rows for links 0.." +
        std::to_string(max_link) + " and cells 0.." +
        std::to_string(max_cell) +
        " (every (link, cell) pair must appear exactly once)");
  }
  const std::size_t m = max_link + 1;
  const std::size_t n = max_cell + 1;
  FingerprintTable table;
  table.database = linalg::Matrix(m, n);
  table.mask = linalg::Matrix(m, n);
  table.sources.assign(m, SourceInfo{});
  table.cell_centers.assign(n, geom::Point2{});
  std::vector<bool> seen(m * n, false);
  std::vector<bool> link_seen(m, false), cell_seen(n, false);
  for (const Row& row : rows) {
    const auto at = [&](std::size_t line) {
      return "fingerprint row at line " + std::to_string(line);
    };
    if (seen[row.link * n + row.cell]) {
      return api::Status::invalid_argument(
          at(row.line) + ": duplicate (link " + std::to_string(row.link) +
          ", cell " + std::to_string(row.cell) + ") entry");
    }
    seen[row.link * n + row.cell] = true;
    if (link_seen[row.link] && table.sources[row.link] != row.source) {
      return api::Status::invalid_argument(
          at(row.line) + ": link " + std::to_string(row.link) +
          " changes its source mid-file");
    }
    link_seen[row.link] = true;
    table.sources[row.link] = row.source;
    if (cell_seen[row.cell] &&
        (table.cell_centers[row.cell].x != row.center.x ||
         table.cell_centers[row.cell].y != row.center.y)) {
      return api::Status::invalid_argument(
          at(row.line) + ": cell " + std::to_string(row.cell) +
          " changes its center mid-file");
    }
    cell_seen[row.cell] = true;
    table.cell_centers[row.cell] = row.center;
    table.database(row.link, row.cell) = row.rss;
    table.mask(row.link, row.cell) = row.mask;
  }
  return table;
}

api::Status write_fingerprint_csv(const FingerprintTable& table,
                                  const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return api::Status::not_found("cannot open '" + path + "' for writing");
  }
  return export_fingerprint_csv(table, out);
}

api::Result<FingerprintTable> read_fingerprint_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return api::Status::not_found("cannot open '" + path + "'");
  }
  return import_fingerprint_csv(in, path);
}

}  // namespace iup::trace
