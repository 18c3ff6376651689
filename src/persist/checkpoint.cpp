#include "persist/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/fingerprint.hpp"

namespace iup::persist {

namespace {

void put_health(ByteWriter& writer, const serve::HealthValues& h) {
  writer.put_u32(static_cast<std::uint32_t>(h.state));
  serve::for_each_counter([&](std::uint64_t v) { writer.put_u64(v); }, h);
}

bool get_health(ByteReader& reader, serve::HealthValues& h) {
  std::uint32_t state = 0;
  if (!reader.get_u32(state)) return false;
  h.state = static_cast<serve::SiteState>(state);
  bool ok = true;
  serve::for_each_counter(
      [&](std::uint64_t& v) { ok = ok && reader.get_u64(v); }, h);
  return ok;
}

void put_site(ByteWriter& writer, const SiteImage& site) {
  writer.put_string(site.site);
  writer.put_u64(site.serving_version);
  writer.put_u32(static_cast<std::uint32_t>(site.chain.size()));
  for (const api::SnapshotPtr& snapshot : site.chain) {
    put_snapshot(writer, *snapshot);
  }
  put_warm(writer, site.warm);
  put_health(writer, site.health);
}

bool get_site(ByteReader& reader, SiteImage& site) {
  std::uint32_t chain_size = 0;
  if (!reader.get_string(site.site) ||
      !reader.get_u64(site.serving_version) || !reader.get_u32(chain_size)) {
    return false;
  }
  site.chain.clear();
  site.chain.reserve(chain_size);
  for (std::uint32_t k = 0; k < chain_size; ++k) {
    api::SnapshotPtr snapshot;
    if (!get_snapshot(reader, snapshot)) return false;
    site.chain.push_back(std::move(snapshot));
  }
  return get_warm(reader, site.warm) && get_health(reader, site.health) &&
         reader.exhausted();
}

}  // namespace

void put_snapshot(ByteWriter& writer, const api::FingerprintSnapshot& s) {
  writer.put_string(s.site());
  writer.put_u64(s.version());
  writer.put_u64(s.day());
  writer.put_matrix(s.database());
  writer.put_matrix(s.mask());
  writer.put_u64(s.layout().links);
  writer.put_u64(s.layout().slots);
  writer.put_u32(static_cast<std::uint32_t>(s.reference_cells().size()));
  for (const std::size_t cell : s.reference_cells()) writer.put_u64(cell);
  writer.put_matrix(s.correlation());
  writer.put_u32(static_cast<std::uint32_t>(s.sources().size()));
  for (const SourceInfo& source : s.sources()) {
    writer.put_u64(source.id.value());
    writer.put_u8(static_cast<std::uint8_t>(source.technology));
  }
}

bool get_snapshot(ByteReader& reader, api::SnapshotPtr& out) {
  std::string site;
  std::uint64_t version = 0;
  std::uint64_t day = 0;
  linalg::Matrix database;
  linalg::Matrix mask;
  core::BandLayout layout;
  std::uint64_t links = 0;
  std::uint64_t slots = 0;
  if (!reader.get_string(site) || !reader.get_u64(version) ||
      !reader.get_u64(day) || !reader.get_matrix(database) ||
      !reader.get_matrix(mask) || !reader.get_u64(links) ||
      !reader.get_u64(slots)) {
    return false;
  }
  layout.links = links;
  layout.slots = slots;
  std::uint32_t cell_count = 0;
  if (!reader.get_u32(cell_count)) return false;
  std::vector<std::size_t> cells(cell_count);
  for (std::size_t& cell : cells) {
    std::uint64_t v = 0;
    if (!reader.get_u64(v)) return false;
    cell = v;
  }
  linalg::Matrix correlation;
  if (!reader.get_matrix(correlation)) return false;
  std::uint32_t source_count = 0;
  if (!reader.get_u32(source_count)) return false;
  std::vector<SourceInfo> sources(source_count);
  for (SourceInfo& source : sources) {
    std::uint64_t id = 0;
    std::uint8_t technology = 0;
    if (!reader.get_u64(id) || !reader.get_u8(technology)) return false;
    source.id = SourceId(id);
    source.technology = static_cast<Technology>(technology);
  }
  out = std::make_shared<api::FingerprintSnapshot>(
      std::move(site), version, std::move(database), std::move(mask), layout,
      std::move(cells), std::move(correlation), day, std::move(sources));
  return true;
}

void put_warm(ByteWriter& writer, const WarmImage& warm) {
  writer.put_u8(warm.factor != nullptr ? 1 : 0);
  if (warm.factor != nullptr) {
    writer.put_u64(warm.factor_version);
    writer.put_matrix(*warm.factor);
  }
  writer.put_u8(warm.lrr != nullptr ? 1 : 0);
  if (warm.lrr != nullptr) {
    writer.put_u64(warm.lrr_version);
    writer.put_matrix(warm.lrr->z);
    writer.put_matrix(warm.lrr->y1);
    writer.put_matrix(warm.lrr->y2);
    writer.put_f64(warm.lrr->mu);
  }
}

bool get_warm(ByteReader& reader, WarmImage& out) {
  std::uint8_t has = 0;
  if (!reader.get_u8(has)) return false;
  if (has != 0) {
    auto factor = std::make_shared<linalg::Matrix>();
    if (!reader.get_u64(out.factor_version) || !reader.get_matrix(*factor)) {
      return false;
    }
    out.factor = std::move(factor);
  }
  if (!reader.get_u8(has)) return false;
  if (has != 0) {
    auto lrr = std::make_shared<core::LrrWarmStart>();
    if (!reader.get_u64(out.lrr_version) || !reader.get_matrix(lrr->z) ||
        !reader.get_matrix(lrr->y1) || !reader.get_matrix(lrr->y2) ||
        !reader.get_f64(lrr->mu)) {
      return false;
    }
    out.lrr = std::move(lrr);
  }
  return true;
}

std::vector<std::uint8_t> encode_checkpoint(const EngineImage& image) {
  ByteWriter header;
  for (const char c : kCheckpointMagic) {
    header.put_u8(static_cast<std::uint8_t>(c));
  }
  header.put_u32(kFormatVersion);
  header.put_u32(static_cast<std::uint32_t>(image.sites.size()));

  std::vector<std::uint8_t> out = header.bytes();
  for (const SiteImage& site : image.sites) {
    ByteWriter payload;
    put_site(payload, site);
    ByteWriter frame;
    frame.put_u64(payload.bytes().size());
    frame.put_u32(crc32(payload.span()));
    out.insert(out.end(), frame.bytes().begin(), frame.bytes().end());
    out.insert(out.end(), payload.bytes().begin(), payload.bytes().end());
  }
  return out;
}

api::Status decode_checkpoint(std::span<const std::uint8_t> bytes,
                              EngineImage& out) {
  ByteReader reader(bytes);
  std::uint8_t magic[8] = {};
  for (std::uint8_t& b : magic) {
    if (!reader.get_u8(b)) {
      return api::Status::data_loss("checkpoint: truncated header");
    }
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return api::Status::data_loss(
        "checkpoint: bad magic (not a checkpoint file, or header damaged)");
  }
  std::uint32_t format = 0;
  std::uint32_t site_count = 0;
  if (!reader.get_u32(format) || !reader.get_u32(site_count)) {
    return api::Status::data_loss("checkpoint: truncated header");
  }
  if (format != kFormatVersion) {
    return api::Status::failed_precondition(
        "checkpoint: format version " + std::to_string(format) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "); refusing to guess at an incompatible layout");
  }
  EngineImage image;
  image.sites.reserve(site_count);
  for (std::uint32_t k = 0; k < site_count; ++k) {
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    if (!reader.get_u64(length) || !reader.get_u32(crc) ||
        reader.remaining() < length) {
      return api::Status::data_loss(
          "checkpoint: truncated site section " + std::to_string(k) +
          " (atomic publication should make this impossible; the file was "
          "damaged after the fact)");
    }
    const std::span<const std::uint8_t> payload =
        bytes.subspan(bytes.size() - reader.remaining(), length);
    if (crc32(payload) != crc) {
      return api::Status::data_loss(
          "checkpoint: CRC mismatch in site section " + std::to_string(k) +
          " — refusing to serve from a damaged checkpoint");
    }
    ByteReader section(payload);
    SiteImage site;
    if (!get_site(section, site)) {
      return api::Status::data_loss(
          "checkpoint: site section " + std::to_string(k) +
          " passed its CRC but failed to decode (format bug)");
    }
    image.sites.push_back(std::move(site));
    reader.skip(length);  // the payload was decoded through its own reader
  }
  if (!reader.exhausted()) {
    return api::Status::data_loss("checkpoint: trailing bytes after the last "
                                  "site section");
  }
  out = std::move(image);
  return {};
}

api::Status save_checkpoint_file(const std::string& dir,
                                 const EngineImage& image, bool do_fsync) {
  if (api::Status s = ensure_directory(dir); !s.ok()) return s;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(image);
  return write_file_atomic(dir + "/" + kCheckpointFile, bytes, do_fsync);
}

api::Status load_checkpoint_file(const std::string& dir, EngineImage& out) {
  std::vector<std::uint8_t> bytes;
  if (api::Status s = read_file(dir + "/" + kCheckpointFile, bytes); !s.ok()) {
    return s;
  }
  return decode_checkpoint(bytes, out);
}

}  // namespace iup::persist
