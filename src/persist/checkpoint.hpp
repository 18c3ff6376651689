// The binary checkpoint format for durable engine state.
//
// One checkpoint file captures every site's retained snapshot chain
// (X, B, masks, reference cells, correlation Z, source tables, day/version
// labels), the warm-start caches and the health counters — everything a
// fresh engine needs to serve and to keep SOLVING bit-identically to the
// uninterrupted process (the warm caches change later solver iterates,
// which is why they are first-class checkpoint payload, not an
// optimization detail).
//
// File layout (all integers little-endian, doubles raw IEEE-754 — see
// persist/io.hpp):
//
//   +--------------------------------------------------------------+
//   | magic "IUPCKPT1" (8 bytes)                                   |
//   | format version u32                                           |
//   | site count u32                                               |
//   +-- per site -------------------------------------------------+
//   | payload length u64 | payload crc32 u32 | payload bytes ...   |
//   +--------------------------------------------------------------+
//
// The header is validated by its magic (a flipped bit there is
// kDataLoss, a different format version is kFailedPrecondition); each
// site section carries its own CRC32 so a flipped bit anywhere in the
// payload is pinpointed to a site and reported as kDataLoss — a damaged
// checkpoint is never partially applied.
//
// Publication is atomic (persist::write_file_atomic: temp + fsync +
// rename + dir fsync), so the file named kCheckpointFile is always a
// complete checkpoint from SOME moment; the WAL (persist/wal.hpp) covers
// the suffix since then.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/snapshot.hpp"
#include "api/status.hpp"
#include "core/lrr.hpp"
#include "linalg/matrix.hpp"
#include "persist/io.hpp"
#include "serve/health.hpp"

namespace iup::persist {

inline constexpr char kCheckpointMagic[8] = {'I', 'U', 'P', 'C',
                                             'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// File names inside a durability directory.
inline constexpr const char* kCheckpointFile = "CHECKPOINT";
inline constexpr const char* kWalFile = "WAL";

/// Value image of one site's warm-start caches (shared_ptrs: collecting
/// an image never copies a matrix, and restoring installs these exact
/// objects into the shard).  Null pointers mean "cache empty/disabled".
struct WarmImage {
  std::uint64_t factor_version = 0;
  std::shared_ptr<const linalg::Matrix> factor;
  std::uint64_t lrr_version = 0;
  std::shared_ptr<const core::LrrWarmStart> lrr;
};

/// One checkpointed site: the retained chain (oldest first, contiguous
/// versions — may start above 1 after history-limit eviction), the
/// version its serving bundle published, and the cache/health state.
struct SiteImage {
  std::string site;
  std::uint64_t serving_version = 0;
  std::vector<api::SnapshotPtr> chain;
  WarmImage warm;
  serve::HealthValues health;
};

/// Everything a checkpoint holds, sites sorted by name (deterministic
/// bytes for identical state).
struct EngineImage {
  std::vector<SiteImage> sites;
};

// --- encoding building blocks (shared with the WAL's record payloads) --

/// Serialize one snapshot / warm image into `writer` (WAL records reuse
/// these exact encoders, so checkpoint and log bytes can never drift
/// apart).
void put_snapshot(ByteWriter& writer, const api::FingerprintSnapshot& s);
void put_warm(ByteWriter& writer, const WarmImage& warm);
/// Decode counterparts.  kDataLoss on truncated or implausible bytes, and
/// on a non-finite snapshot database or correlation, warm factor or LRR
/// warm state (z, y1, y2, mu), naming the site (`site` for the warm image)
/// and the matrix: an engine never commits such state, and restoring it
/// would publish it or warm-start every later solve from it.
api::Status get_snapshot(ByteReader& reader, api::SnapshotPtr& out);
api::Status get_warm(ByteReader& reader, const std::string& site,
                     WarmImage& out);

/// Encode/decode a whole checkpoint.  decode validates magic, format
/// version, every section CRC and every section's contents (see
/// get_snapshot); on any failure `out` is left untouched.
std::vector<std::uint8_t> encode_checkpoint(const EngineImage& image);
api::Status decode_checkpoint(std::span<const std::uint8_t> bytes,
                              EngineImage& out);

/// Write `image` as `dir`/CHECKPOINT with atomic publication.
api::Status save_checkpoint_file(const std::string& dir,
                                 const EngineImage& image,
                                 bool do_fsync = true);
/// Load `dir`/CHECKPOINT; kNotFound when the file does not exist.
api::Status load_checkpoint_file(const std::string& dir, EngineImage& out);

}  // namespace iup::persist
