// The trace CSV layer: bit-identical round-trips, schema validation and
// precise malformed-row rejection (file:line: column messages), for the
// fingerprint, observation and query formats.
#include "trace/fingerprint_csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "trace/csv.hpp"
#include "trace/observation_csv.hpp"
#include "test_util.hpp"

namespace iup::trace {
namespace {

using api::StatusCode;

FingerprintTable small_table() {
  FingerprintTable table;
  table.database = linalg::Matrix(2, 3);
  table.mask = linalg::Matrix(2, 3);
  rng::Rng rng(99);
  for (double& v : table.database.data()) v = -40.0 - 30.0 * rng.uniform();
  table.mask(0, 0) = 1.0;
  table.mask(1, 2) = 1.0;
  table.sources = {{SourceId(11), Technology::kWifi},
                   {SourceId(22), Technology::kBle}};
  table.cell_centers = {{0.5, 0.5}, {1.5, 0.5}, {2.5, 0.5}};
  return table;
}

TEST(FormatDouble, RoundTripsExactly) {
  for (const double v : {-67.3125, 1.0 / 3.0, -1e-17, 0.0, 1e300,
                         -0.1 + 0.2, 5e-324}) {
    const std::string text = format_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(FingerprintCsv, RoundTripIsBitIdentical) {
  const FingerprintTable table = small_table();
  std::ostringstream out;
  ASSERT_TRUE(export_fingerprint_csv(table, out).ok());

  std::istringstream in(out.str());
  const auto imported = import_fingerprint_csv(in, "mem");
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  const FingerprintTable& got = imported.value();
  EXPECT_EQ(got.database, table.database);
  EXPECT_EQ(got.mask, table.mask);
  EXPECT_EQ(got.sources, table.sources);
  ASSERT_EQ(got.cell_centers.size(), table.cell_centers.size());
  for (std::size_t j = 0; j < got.cell_centers.size(); ++j) {
    EXPECT_EQ(got.cell_centers[j].x, table.cell_centers[j].x);
    EXPECT_EQ(got.cell_centers[j].y, table.cell_centers[j].y);
  }

  // Export -> import -> export is byte-stable.
  std::ostringstream again;
  ASSERT_TRUE(export_fingerprint_csv(got, again).ok());
  EXPECT_EQ(again.str(), out.str());
}

TEST(FingerprintCsv, SnapshotExportSynthesisesLegacySources) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const auto snapshot = engine.snapshot("office").value();
  std::vector<geom::Point2> centers;
  for (std::size_t j = 0; j < run.testbed.num_cells(); ++j) {
    centers.push_back(run.testbed.deployment().cell_center(j));
  }
  std::ostringstream out;
  ASSERT_TRUE(export_fingerprint_csv(*snapshot, centers, out).ok());
  std::istringstream in(out.str());
  const auto imported = import_fingerprint_csv(in, "mem");
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  EXPECT_EQ(imported.value().database, snapshot->database());
  // Source-less snapshot exports the degenerate single-technology table.
  EXPECT_EQ(imported.value().sources,
            single_technology_sources(snapshot->database().rows()));
}

void expect_import_fails(const std::string& csv, const std::string& needle) {
  std::istringstream in(csv);
  const auto imported = import_fingerprint_csv(in, "bad");
  ASSERT_FALSE(imported.ok()) << "expected failure for: " << needle;
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(imported.status().message().find(needle), std::string::npos)
      << imported.status().message();
}

TEST(FingerprintCsv, MalformedRowsAreRejectedWithPreciseMessages) {
  const std::string header =
      "link,cell,source_id,technology,rss_db,mask,cell_x_m,cell_y_m\n";

  expect_import_fails("nope\n", "header has 1 columns");
  expect_import_fails(
      "link,cell,source_id,technology,rss_db,mask,cell_x_m,oops\n",
      "header column 7");
  expect_import_fails(header, "no fingerprint rows");
  expect_import_fails(header + "0,0,1,wifi,-50,1\n", "row has 6 fields");
  expect_import_fails(header + "0,0,1,zigbee,-50,1,0.5,0.5\n",
                      "unknown value 'zigbee'");
  expect_import_fails(header + "0,0,1,wifi,abc,1,0.5,0.5\n",
                      "column 'rss_db' has non-numeric value 'abc'");
  expect_import_fails(header + "0,0,1,wifi,nan,1,0.5,0.5\n",
                      "column 'rss_db' is non-finite");
  expect_import_fails(header + "0,0,1,wifi,-50,2,0.5,0.5\n",
                      "column 'mask' must be 0 or 1");
  expect_import_fails(header + "0,-1,1,wifi,-50,1,0.5,0.5\n",
                      "column 'cell' has non-integer value '-1'");
  expect_import_fails(header + "0,0,1,wifi,-50,1,0.5,0.5\n" +
                          "0,0,1,wifi,-51,1,0.5,0.5\n",
                      "duplicate (link 0, cell 0)");
  expect_import_fails(header + "0,0,1,wifi,-50,1,0.5,0.5\n" +
                          "0,1,2,ble,-51,1,1.5,0.5\n",
                      "changes its source mid-file");
  expect_import_fails(header + "0,0,1,wifi,-50,1,0.5,0.5\n" +
                          "1,0,2,ble,-51,1,0.75,0.5\n",
                      "changes its center mid-file");
  expect_import_fails(header + "0,1,1,wifi,-50,1,1.5,0.5\n",
                      "not rectangular");
  // Ids far past what the row count can fill are rejected before
  // anything is sized from them, up to the largest u64 link id.
  expect_import_fails(header + "0,0,1,wifi,-40,1,0,0\n" +
                          "1000000000000,0,2,wifi,-41,1,0,0\n",
                      "not rectangular");
  expect_import_fails(header + "0,0,1,wifi,-40,1,0,0\n" +
                          "4294967296,0,2,wifi,-41,1,0,0\n",
                      "not rectangular");
  expect_import_fails(header + "0,0,1,wifi,-40,1,0,0\n" +
                          "18446744073709551615,0,2,wifi,-41,1,0,0\n",
                      "not rectangular");
  // Errors carry the label and line number.
  expect_import_fails(header + "0,0,1,wifi,-50,1,0.5,0.5\n" +
                          "0,1,1,wifi,oops,1,1.5,0.5\n",
                      "bad:3:");
}

TEST(ObservationCsv, RoundTripIsBitIdentical) {
  std::vector<ingest::Observation> stream;
  rng::Rng rng(7);
  for (std::size_t k = 0; k < 40; ++k) {
    ingest::Observation obs;
    obs.day = 3 + (k / 20) * 12;
    obs.link = k % 4;
    obs.cell = (k * 7) % 12;
    obs.source = SourceId(100 + obs.link);
    obs.rss_db = -80.0 + 40.0 * rng.uniform();
    stream.push_back(obs);
  }
  std::ostringstream out;
  ASSERT_TRUE(export_observation_csv(stream, out).ok());
  std::istringstream in(out.str());
  const auto imported = import_observation_csv(in, "mem");
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  ASSERT_EQ(imported.value().size(), stream.size());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    EXPECT_EQ(imported.value()[k].day, stream[k].day);
    EXPECT_EQ(imported.value()[k].link, stream[k].link);
    EXPECT_EQ(imported.value()[k].cell, stream[k].cell);
    EXPECT_EQ(imported.value()[k].source, stream[k].source);
    EXPECT_EQ(imported.value()[k].rss_db, stream[k].rss_db);  // bit-exact
  }
}

TEST(ObservationCsv, ExportRejectsUnattributedReadings) {
  std::vector<ingest::Observation> stream(1);  // default: unspecified source
  std::ostringstream out;
  const auto status = export_observation_csv(stream, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ObservationCsv, ImportKeepsDirtyValuesForTheQuarantine) {
  // Range/finiteness are the ingest buffer's job: a -300 dB reading must
  // survive the import so a replay exercises the quarantine.
  std::istringstream in(
      "day,link,cell,source_id,rss_db\n"
      "3,0,0,100,-300\n");
  const auto imported = import_observation_csv(in, "mem");
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  EXPECT_EQ(imported.value()[0].rss_db, -300.0);
}

TEST(QueryCsv, RoundTripAndValidation) {
  std::vector<LocalizationQuery> queries;
  rng::Rng rng(13);
  for (std::uint64_t id = 0; id < 5; ++id) {
    LocalizationQuery q;
    q.id = id;
    q.day = 45;
    q.true_position = {0.3 * static_cast<double>(id), 1.25};
    for (std::size_t i = 0; i < 3; ++i) {
      q.rss_db.push_back(-70.0 + 30.0 * rng.uniform());
    }
    queries.push_back(std::move(q));
  }
  std::ostringstream out;
  ASSERT_TRUE(export_query_csv(queries, out).ok());
  std::istringstream in(out.str());
  const auto imported = import_query_csv(in, "mem", 3);
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  ASSERT_EQ(imported.value().size(), queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    EXPECT_EQ(imported.value()[k].id, queries[k].id);
    EXPECT_EQ(imported.value()[k].day, queries[k].day);
    EXPECT_EQ(imported.value()[k].true_position.x, queries[k].true_position.x);
    EXPECT_EQ(imported.value()[k].rss_db, queries[k].rss_db);
  }

  const std::string header = "query_id,day,true_x_m,true_y_m,link,rss_db\n";
  const auto fails = [](const std::string& csv, const std::string& needle) {
    std::istringstream bad(csv);
    const auto result = import_query_csv(bad, "bad", 2);
    ASSERT_FALSE(result.ok()) << needle;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(needle), std::string::npos)
        << result.status().message();
  };
  fails(header + "0,45,0,0,0,-50\n", "missing link 1");
  fails(header + "0,45,0,0,0,-50\n0,45,0,0,0,-51\n", "repeats link 0");
  fails(header + "0,45,0,0,0,-50\n0,45,0,1,1,-51\n",
        "changes its day or ground-truth position");
  fails(header + "0,45,0,0,0,-50\n0,45,0,0,1,-51\n"
               + "1,45,1,0,0,-50\n1,45,1,0,1,-51\n"
               + "0,45,0,0,0,-50\n0,45,0,0,1,-51\n",
        "not contiguous");
  fails(header + "0,45,0,0,5,-50\n", "the deployment has 2 links");
  fails(header + "0,45,inf,0,0,-50\n", "non-finite");
}

TEST(PathWrappers, MissingFileIsNotFound) {
  EXPECT_EQ(read_fingerprint_csv("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(read_observation_csv("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(read_query_csv("/no/such/file.csv", 4).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace iup::trace
