// Durability: checkpoint/WAL round trips, corruption paths and recovery
// semantics.  The round-trip identity tests run in the CI SIMD cells too
// (scalar / AVX2 / AVX-512): the format stores raw IEEE-754 bytes, so a
// restore must be bit-identical at every kernel dispatch level.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "ingest/faults.hpp"
#include "ingest/supervisor.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/io.hpp"
#include "persist/wal.hpp"
#include "test_util.hpp"

namespace iup::persist {
namespace {

using api::Engine;
using api::EngineConfig;
using api::StatusCode;

/// Fresh unique directory under the gtest temp root, removed on scope
/// exit.
struct TempDir {
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "iup-persist-XXXXXX";
    path = ::mkdtemp(tmpl.data()) != nullptr ? tmpl : std::string();
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string path;
};

Engine office_engine(const eval::EnvironmentRun& run,
                     EngineConfig config = {}) {
  Engine engine(std::move(config));
  const auto registered = eval::register_run(engine, run, "office");
  EXPECT_TRUE(registered.ok()) << registered.status().to_string();
  return engine;
}

/// Commit `days` office updates (the standard drifting-survey workload).
void run_updates(Engine& engine, const eval::EnvironmentRun& run,
                 std::initializer_list<std::size_t> days) {
  const auto cells = engine.snapshot("office").value()->reference_cells();
  for (const std::size_t day : days) {
    const auto result =
        engine.update(eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
}

std::vector<double> probe_measurement(const Engine& engine,
                                      std::size_t column) {
  const linalg::Matrix& db =
      engine.published("office").value()->snapshot->database();
  std::vector<double> m(db.rows());
  for (std::size_t i = 0; i < db.rows(); ++i) m[i] = db(i, column) + 1.5;
  return m;
}

/// EXACT equality across everything recovery must reproduce: retained
/// chains (all matrices compared bit-for-bit), warm-cache versions, and
/// the localize answers for a panel of probes.
void expect_engines_identical(const Engine& a, const Engine& b) {
  ASSERT_EQ(a.store().sites(), b.store().sites());
  for (const std::string& site : a.store().sites()) {
    ASSERT_EQ(a.store().version_count(site), b.store().version_count(site));
    const std::uint64_t latest = a.store().latest(site).value()->version();
    ASSERT_EQ(latest, b.store().latest(site).value()->version());
    const std::uint64_t first =
        latest - a.store().version_count(site) + 1;
    for (std::uint64_t v = first; v <= latest; ++v) {
      const auto sa = a.store().at_version(site, v).value();
      const auto sb = b.store().at_version(site, v).value();
      EXPECT_TRUE(sa->database() == sb->database()) << site << " v" << v;
      EXPECT_TRUE(sa->mask() == sb->mask());
      EXPECT_TRUE(sa->correlation() == sb->correlation());
      EXPECT_EQ(sa->reference_cells(), sb->reference_cells());
      EXPECT_EQ(sa->day(), sb->day());
      EXPECT_EQ(sa->sources().size(), sb->sources().size());
    }
    EXPECT_EQ(a.published(site).value()->snapshot->version(),
              b.published(site).value()->snapshot->version());
    EXPECT_EQ(a.warm_start_version(site), b.warm_start_version(site));
    EXPECT_EQ(a.lrr_warm_version(site), b.lrr_warm_version(site));
  }
  for (std::size_t column = 0; column < 96; column += 17) {
    const std::vector<double> m = probe_measurement(a, column);
    const auto ea = a.localize("office", m);
    const auto eb = b.localize("office", m);
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(ea.value().cell, eb.value().cell) << "probe " << column;
    EXPECT_EQ(ea.value().score, eb.value().score) << "probe " << column;
  }
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(path, bytes).ok());
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- byte plumbing ----------------------------------------------------

TEST(PersistIo, Crc32MatchesTheIeeeReferenceVector) {
  // The canonical check value for the 0xEDB88320 polynomial.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
}

TEST(PersistIo, ScalarsAndMatricesRoundTripBitExactly) {
  ByteWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(0x0123456789ABCDEFull);
  writer.put_f64(-0.1);  // not exactly representable: bytes must survive
  writer.put_f64(5e-324);  // smallest denormal
  writer.put_string("office");
  linalg::Matrix m(3, 2);
  double fill = 0.1;
  for (double& v : m.data()) v = (fill += 0.7);
  writer.put_matrix(m);

  ByteReader reader(writer.span());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double d1 = 0;
  double d2 = 0;
  std::string s;
  linalg::Matrix out;
  ASSERT_TRUE(reader.get_u8(u8) && reader.get_u32(u32) &&
              reader.get_u64(u64) && reader.get_f64(d1) &&
              reader.get_f64(d2) && reader.get_string(s) &&
              reader.get_matrix(out) && reader.exhausted());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(d1, -0.1);
  EXPECT_EQ(d2, 5e-324);
  EXPECT_EQ(s, "office");
  EXPECT_TRUE(out == m);
}

TEST(PersistIo, ReaderRejectsTruncationAndImplausibleLengths) {
  ByteWriter writer;
  writer.put_u64(1u << 20);  // rows
  writer.put_u64(1u << 20);  // cols: would be an 8 TB allocation
  ByteReader reader(writer.span());
  linalg::Matrix m;
  EXPECT_FALSE(reader.get_matrix(m));  // length exceeds the stream

  ByteReader empty(std::span<const std::uint8_t>{});
  std::uint32_t v = 0;
  EXPECT_FALSE(empty.get_u32(v));
  EXPECT_TRUE(empty.exhausted());
}

TEST(PersistIo, SnapshotCodecRoundTripsTheMultiRadioTable) {
  linalg::Matrix db(2, 6);
  linalg::Matrix mask(2, 6);
  double fill = -60.0;
  for (double& v : db.data()) v = (fill += 0.3);
  for (double& v : mask.data()) v = 1.0;
  const api::FingerprintSnapshot snapshot(
      "lab", 7, db, mask, core::BandLayout{2, 3}, {0, 2},
      linalg::Matrix(2, 6, 0.5), /*day=*/42,
      {SourceInfo{SourceId(11), Technology::kWifi},
       SourceInfo{SourceId(22), Technology::kBle}});

  ByteWriter writer;
  put_snapshot(writer, snapshot);
  ByteReader reader(writer.span());
  api::SnapshotPtr out;
  ASSERT_TRUE(get_snapshot(reader, out) && reader.exhausted());
  EXPECT_EQ(out->site(), "lab");
  EXPECT_EQ(out->version(), 7u);
  EXPECT_EQ(out->day(), 42u);
  EXPECT_TRUE(out->database() == snapshot.database());
  EXPECT_TRUE(out->mask() == snapshot.mask());
  EXPECT_TRUE(out->correlation() == snapshot.correlation());
  EXPECT_EQ(out->layout().links, 2u);
  EXPECT_EQ(out->layout().slots, 3u);
  EXPECT_EQ(out->reference_cells(), snapshot.reference_cells());
  ASSERT_EQ(out->sources().size(), 2u);
  EXPECT_EQ(out->sources()[1].id, SourceId(22));
  EXPECT_EQ(out->sources()[1].technology, Technology::kBle);

  // A WAL record of the same snapshot with its reference-cell count or
  // its source count patched to 2^32 - 1: the decode fails instead of
  // sizing a vector from the count.  The counts sit after the site name,
  // version, day, two 2x6 matrices and the layout pair; the source count
  // further after the two cells and the 2x6 correlation.
  const std::vector<std::uint8_t> wal = encode_wal_record(
      WalRecord{std::make_shared<api::FingerprintSnapshot>(snapshot), {}});
  const std::size_t matrix_bytes = 16 + 12 * 8;
  const std::size_t cell_count_at = 4 + 3 + 8 + 8 + 2 * matrix_bytes + 16;
  const std::size_t source_count_at = cell_count_at + 4 + 2 * 8 + matrix_bytes;
  for (const std::size_t at : {cell_count_at, source_count_at}) {
    ASSERT_EQ(std::vector<std::uint8_t>(wal.begin() + at, wal.begin() + at + 4),
              (std::vector<std::uint8_t>{2, 0, 0, 0}))
        << "offset " << at;
    std::vector<std::uint8_t> patched = wal;
    std::fill_n(patched.begin() + at, 4, std::uint8_t{0xFF});
    WalRecord record;
    EXPECT_FALSE(decode_wal_record(patched, record)) << "offset " << at;
  }
}

// --- pinned wire format -------------------------------------------------

/// One site built from literals only (no solver output), so its encoding
/// is the same at every kernel dispatch level: a two-version chain with a
/// source table, both warm caches, and every health counter distinct.
EngineImage literal_image() {
  const std::vector<SourceInfo> sources = {
      SourceInfo{SourceId(11), Technology::kWifi},
      SourceInfo{SourceId(22), Technology::kBle}};
  const linalg::Matrix mask{{1.0, 0.0, 1.0, 1.0}, {0.0, 1.0, 1.0, 0.0}};
  const std::vector<std::size_t> cells = {0, 3};
  SiteImage site;
  site.site = "lab";
  site.serving_version = 2;
  site.chain.push_back(std::make_shared<api::FingerprintSnapshot>(
      "lab", 1,
      linalg::Matrix{{-40.5, -41.25, -52.0, -60.125},
                     {-45.0, -47.5, -55.75, -58.0}},
      mask, core::BandLayout{2, 2}, cells,
      linalg::Matrix{{1.0, 0.5, 0.25, 0.0}, {0.0, 0.125, 0.75, 1.0}},
      /*day=*/0, sources));
  site.chain.push_back(std::make_shared<api::FingerprintSnapshot>(
      "lab", 2,
      linalg::Matrix{{-41.0, -42.5, -53.25, -61.0},
                     {-46.5, -48.0, -56.0, -59.5}},
      mask, core::BandLayout{2, 2}, cells,
      linalg::Matrix{{0.75, 0.5, -0.25, 0.0}, {0.0, 0.375, 0.5, 1.0}},
      /*day=*/5, sources));
  site.warm.factor_version = 2;
  site.warm.factor = std::make_shared<const linalg::Matrix>(
      linalg::Matrix{{0.5, -1.5}, {2.25, 3.0}});
  auto lrr = std::make_shared<core::LrrWarmStart>();
  lrr->z = linalg::Matrix{{0.75, 0.5, -0.25, 0.0}, {0.0, 0.375, 0.5, 1.0}};
  lrr->y1 =
      linalg::Matrix{{0.0625, -0.125, 0.25, -0.5}, {1.0, -2.0, 4.0, -8.0}};
  lrr->y2 =
      linalg::Matrix{{-0.0625, 0.125, -0.25, 0.5}, {3.0, 5.0, 7.0, 9.0}};
  lrr->mu = 0.375;
  site.warm.lrr_version = 2;
  site.warm.lrr = lrr;
  serve::HealthValues& h = site.health;
  h.state = serve::SiteState::kBackoff;
  h.updates_ok = 101;
  h.updates_failed = 102;
  h.update_attempts = 103;
  h.consecutive_failures = 104;
  h.drift_triggers = 105;
  h.deadline_trips = 106;
  h.breaker_trips = 107;
  h.recoveries = 108;
  h.observations_accepted = 109;
  h.quarantine_non_finite = 110;
  h.quarantine_out_of_range = 111;
  h.quarantine_unknown_link = 112;
  h.quarantine_unknown_cell = 113;
  h.quarantine_unknown_source = 114;
  h.quarantine_overflow = 115;
  h.last_observed_day = 116;
  h.spd_cholesky_failures = 117;
  h.spd_bump_recoveries = 118;
  h.spd_lu_fallbacks = 119;
  EngineImage image;
  image.sites.push_back(std::move(site));
  return image;
}

void expect_snapshots_equal(const api::FingerprintSnapshot& a,
                            const api::FingerprintSnapshot& b) {
  EXPECT_EQ(a.site(), b.site());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.day(), b.day());
  EXPECT_TRUE(a.database() == b.database());
  EXPECT_TRUE(a.mask() == b.mask());
  EXPECT_EQ(a.layout().links, b.layout().links);
  EXPECT_EQ(a.layout().slots, b.layout().slots);
  EXPECT_EQ(a.reference_cells(), b.reference_cells());
  EXPECT_TRUE(a.correlation() == b.correlation());
  EXPECT_EQ(a.sources(), b.sources());
}

void expect_warm_equal(const WarmImage& a, const WarmImage& b) {
  EXPECT_EQ(a.factor_version, b.factor_version);
  ASSERT_NE(a.factor, nullptr);
  ASSERT_NE(b.factor, nullptr);
  EXPECT_TRUE(*a.factor == *b.factor);
  EXPECT_EQ(a.lrr_version, b.lrr_version);
  ASSERT_NE(a.lrr, nullptr);
  ASSERT_NE(b.lrr, nullptr);
  EXPECT_TRUE(a.lrr->z == b.lrr->z);
  EXPECT_TRUE(a.lrr->y1 == b.lrr->y1);
  EXPECT_TRUE(a.lrr->y2 == b.lrr->y2);
  EXPECT_EQ(a.lrr->mu, b.lrr->mu);
}

TEST(PersistWireFormat, CheckpointAndWalBytesArePinned) {
  // Round trips pass even when encoder and decoder change together; these
  // constants (recorded when the format was frozen at kFormatVersion 1)
  // fail instead, because files written earlier would stop loading.
  const EngineImage image = literal_image();
  const std::vector<std::uint8_t> checkpoint = encode_checkpoint(image);
  EXPECT_EQ(checkpoint.size(), 1159u);
  EXPECT_EQ(crc32(checkpoint), 0x24490BBCu);
  const WalRecord record{image.sites[0].chain[1], image.sites[0].warm};
  const std::vector<std::uint8_t> wal = encode_wal_record(record);
  EXPECT_EQ(wal.size(), 635u);
  EXPECT_EQ(crc32(wal), 0x9CB2B69Eu);

  EngineImage decoded;
  ASSERT_TRUE(decode_checkpoint(checkpoint, decoded).ok());
  ASSERT_EQ(decoded.sites.size(), 1u);
  const SiteImage& site = decoded.sites[0];
  const SiteImage& expected = image.sites[0];
  EXPECT_EQ(site.site, expected.site);
  EXPECT_EQ(site.serving_version, expected.serving_version);
  ASSERT_EQ(site.chain.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    expect_snapshots_equal(*site.chain[k], *expected.chain[k]);
  }
  expect_warm_equal(site.warm, expected.warm);
  EXPECT_TRUE(site.health == expected.health);

  WalRecord replayed;
  ASSERT_TRUE(decode_wal_record(wal, replayed));
  expect_snapshots_equal(*replayed.snapshot, *record.snapshot);
  expect_warm_equal(replayed.warm, record.warm);
}

// --- checkpoint round trip and corruption -----------------------------

TEST(PersistCheckpoint, RoundTripRestoresBitIdenticalServing) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15, 45, 75});
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(engine, restored);

  // Health counters travel with the checkpoint.
  const auto h = engine.site_health("office").value();
  const auto hr = restored.site_health("office").value();
  EXPECT_EQ(h.updates_ok, hr.updates_ok);
  EXPECT_EQ(h.serving_version, hr.serving_version);
  EXPECT_EQ(h.last_observed_day, hr.last_observed_day);
}

TEST(PersistCheckpoint, RecoveredEngineKeepsCommittingBitIdentically) {
  // The warm caches are checkpoint payload precisely so POST-recovery
  // solves match: commit the same day-90 update on both engines and
  // require byte-equal databases.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15, 45});
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());

  run_updates(engine, run, {75});
  run_updates(restored, run, {75});
  const auto a = engine.snapshot("office").value();
  const auto b = restored.snapshot("office").value();
  ASSERT_EQ(a->version(), b->version());
  EXPECT_TRUE(a->database() == b->database());
  EXPECT_TRUE(a->correlation() == b->correlation());
}

TEST(PersistCheckpoint, RespectsHistoryLimitChains) {
  // A chain that starts above version 1 (history-limit eviction) must
  // restore with the same window and keep committing.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run, EngineConfig().history_limit(2));
  run_updates(engine, run, {15, 45, 75});  // retained window: v3, v4
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());

  Engine restored(EngineConfig().history_limit(2));
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().version_count("office"), 2u);
  EXPECT_EQ(restored.store().latest("office").value()->version(), 4u);
  EXPECT_EQ(restored.store().at_version("office", 1).status().code(),
            StatusCode::kNotFound);
  run_updates(restored, run, {90});
  EXPECT_EQ(restored.store().latest("office").value()->version(), 5u);
}

TEST(PersistCheckpoint, RestoreIntoNonEmptyEngineIsFailedPrecondition) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  EXPECT_EQ(engine.restore_from(dir.path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistCheckpoint, MissingOrEmptyDirectoryIsNotFound) {
  TempDir dir;
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kNotFound);
  EXPECT_EQ(fresh.restore_from(dir.path + "/does-not-exist").code(),
            StatusCode::kNotFound);
}

TEST(PersistCheckpoint, FlippedBitInASectionIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  // Offset 64 sits inside the first site section's payload (header is 16
  // bytes + 12 bytes of section framing).
  flip_byte(dir.path + "/" + kCheckpointFile, 64);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fresh.store().sites().empty());  // nothing partially applied
}

TEST(PersistCheckpoint, FlippedBitInTheMagicIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  flip_byte(dir.path + "/" + kCheckpointFile, 0);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kDataLoss);
}

TEST(PersistCheckpoint, FlippedBitInTheSiteCountIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  // Bytes 12-15 hold the little-endian site count, which no CRC covers;
  // flipping bit 6 of byte 15 claims 2^30 + 1 sites.
  flip_byte(dir.path + "/" + kCheckpointFile, 15);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fresh.store().sites().empty());
}

TEST(PersistCheckpoint, DifferentFormatVersionIsFailedPrecondition) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  // The format u32 lives right after the 8-byte magic; bump it.
  flip_byte(dir.path + "/" + kCheckpointFile, 8);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(),
            StatusCode::kFailedPrecondition);
}

// --- WAL semantics ----------------------------------------------------

/// Durability manager over a fresh engine: hooks composed BEFORE the
/// engine exists, bound after.
struct DurableOffice {
  explicit DurableOffice(const std::string& dir, std::size_t every,
                         api::UpdateHooks inner = {})
      : manager({dir, every, /*fsync=*/false}),
        engine(EngineConfig().update_hooks(manager.engine_hooks(
            std::move(inner)))) {}
  DurabilityManager manager;
  Engine engine;
};

TEST(PersistWal, WalOnlyRecoveryReplaysFromRegistration) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, /*every=*/0);  // never roll: WAL only
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45});
  EXPECT_EQ(durable.manager.wal_appends(), 3u);  // registration + 2
  EXPECT_EQ(durable.manager.checkpoints_written(), 0u);
  ASSERT_TRUE(durable.manager.last_error().ok());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(durable.engine, restored);
}

TEST(PersistWal, TruncatedTailIsDroppedNotFatal) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45});

  // Chop bytes off the last record: the torn-tail signature.  Recovery
  // drops exactly that record and serves version 2.
  const std::string wal = dir.path + "/" + kWalFile;
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 33);
  std::vector<WalRecord> records;
  bool dropped = false;
  ASSERT_TRUE(read_wal(wal, records, &dropped).ok());
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 2u);

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().latest("office").value()->version(), 2u);
  EXPECT_TRUE(restored.store().latest("office").value()->database() ==
              durable.engine.store().at_version("office", 2).value()
                  ->database());
}

TEST(PersistWal, FlippedBitMidStreamIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15});
  // Offset 20 is inside the FIRST record's payload and more records
  // follow it: not a tail, so truncation must NOT be attempted.
  flip_byte(dir.path + "/" + kWalFile, 20);
  Engine restored;
  EXPECT_EQ(restored.restore_from(dir.path).code(), StatusCode::kDataLoss);
}

TEST(PersistWal, FlippedBitInTheFinalRecordIsATornTail) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15});
  const auto size =
      std::filesystem::file_size(dir.path + "/" + kWalFile);
  flip_byte(dir.path + "/" + kWalFile, static_cast<std::size_t>(size) - 9);
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().latest("office").value()->version(), 1u);
}

// --- DurabilityManager lifecycle --------------------------------------

TEST(PersistDurability, CheckpointRollTruncatesTheWal) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, /*every=*/2);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45, 75});  // 4 commits total
  EXPECT_EQ(durable.manager.wal_appends(), 4u);
  EXPECT_EQ(durable.manager.checkpoints_written(), 2u);
  ASSERT_TRUE(durable.manager.last_error().ok());
  // 4 commits, roll every 2: the WAL holds no full records right now.
  std::vector<WalRecord> records;
  ASSERT_TRUE(read_wal(dir.path + "/" + kWalFile, records).ok());
  EXPECT_TRUE(records.empty());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(durable.engine, restored);
}

TEST(PersistDurability, RecoverBindsAndCompactsAndFreshDirIsOk) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  {
    DurableOffice writer(dir.path, 0);  // WAL-only state on disk
    ASSERT_TRUE(writer.manager.bind(&writer.engine).ok());
    ASSERT_TRUE(eval::register_run(writer.engine, run, "office").ok());
    run_updates(writer.engine, run, {15});
  }
  DurableOffice reader(dir.path, 16);
  ASSERT_TRUE(reader.manager.recover(&reader.engine).ok());
  EXPECT_EQ(reader.engine.store().latest("office").value()->version(), 2u);
  // recover() compacts: checkpoint written, WAL reset.
  EXPECT_EQ(reader.manager.checkpoints_written(), 1u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(read_wal(dir.path + "/" + kWalFile, records).ok());
  EXPECT_TRUE(records.empty());

  // A brand-new directory is a normal first boot, not an error.
  TempDir empty;
  DurableOffice boot(empty.path, 16);
  ASSERT_TRUE(boot.manager.recover(&boot.engine).ok());
  EXPECT_TRUE(boot.engine.store().sites().empty());
}

TEST(PersistDurability, SupervisorRearmsADegradedSiteAfterRestore) {
  const auto& run = iup::test::office_run();
  TempDir dir;

  // Drive the writer's site into kDegraded with a fault injector, then
  // checkpoint it.
  ingest::FaultInjector faults(7);
  Engine writer(EngineConfig().update_hooks(faults.engine_hooks()));
  ASSERT_TRUE(eval::register_run(writer, run, "office").ok());
  ingest::SupervisorOptions immediate;
  immediate.backoff_initial = std::chrono::milliseconds(0);
  immediate.backoff_max = std::chrono::milliseconds(0);
  immediate.breaker_cooldown = std::chrono::milliseconds(0);
  {
    ingest::UpdateSupervisor supervisor(writer, immediate);
    ASSERT_TRUE(supervisor.watch("office").ok());
    faults.arm(ingest::FaultKind::kSolverFailure);
    ASSERT_TRUE(supervisor.trigger("office").ok());
    for (int k = 0; k < 3; ++k) ASSERT_EQ(supervisor.pump(), 1u);
  }
  ASSERT_EQ(writer.site_health("office").value().state,
            serve::SiteState::kDegraded);
  ASSERT_TRUE(writer.save_checkpoint(dir.path).ok());

  // Restore: the site comes back degraded (still serving last-good) and
  // watch() re-arms the probe protocol instead of resetting to healthy —
  // the first pump runs a half-open probe, which commits and recovers.
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.site_health("office").value().state,
            serve::SiteState::kDegraded);
  ingest::UpdateSupervisor supervisor(restored, immediate);
  ASSERT_TRUE(supervisor.watch("office").ok());
  ASSERT_EQ(supervisor.pump(), 1u);  // probe ran with no new trigger
  const auto health = restored.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kHealthy);
  EXPECT_GE(health.recoveries, 1u);
  EXPECT_EQ(health.serving_version, 2u);
}

}  // namespace
}  // namespace iup::persist
