// Engine durability entry points (declared in api/engine.hpp): checkpoint
// image collection, restore, and WAL replay.  Lives in src/persist/ so the
// api layer keeps zero knowledge of file formats; this file is the only
// place where Engine internals and the persist codecs meet.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace iup::api {

persist::EngineImage Engine::collect_persist_image() const {
  persist::EngineImage image;
  // Chains + serving versions under ONE state-lock hold: the image is
  // commit-consistent (no site can advance mid-collection), and the
  // SnapshotPtr copies are refcount bumps, not matrix copies, so the lock
  // hold is short.  Serialization happens after release.
  {
    const auto lock = state_lock();
    std::vector<std::string> names = store_.sites();
    std::sort(names.begin(), names.end());  // deterministic bytes
    image.sites.reserve(names.size());
    for (std::string& name : names) {
      persist::SiteImage site;
      const std::uint64_t latest = store_.next_version(name) - 1;
      const std::size_t count = store_.version_count(name);
      const std::uint64_t first = latest - count + 1;
      site.chain.reserve(count);
      for (std::uint64_t v = first; v <= latest; ++v) {
        site.chain.push_back(store_.at_version(name, v).value());
      }
      site.serving_version = latest;
      if (const auto shard = shards_->find(name); shard != nullptr) {
        if (const serve::PublishedPtr bundle = shard->published();
            bundle != nullptr && bundle->snapshot != nullptr) {
          site.serving_version = bundle->snapshot->version();
        }
      }
      site.site = std::move(name);
      image.sites.push_back(std::move(site));
    }
  }
  // Warm caches + health per shard, outside the commit lock (shard locks
  // never nest with it).  A commit racing in here can only install a
  // NEWER cache than the chain we captured — harmless, because cache
  // consultation is exact-version-match after restore.
  for (persist::SiteImage& site : image.sites) {
    const auto shard = shards_->find(site.site);
    if (shard == nullptr) continue;
    {
      const auto lock = shard->lock_for_update();
      const serve::WarmCaches& caches = shard->caches(lock);
      site.warm.factor_version = caches.factor_version;
      site.warm.factor = caches.factor;
      site.warm.lrr_version = caches.lrr_version;
      site.warm.lrr = caches.lrr;
    }
    site.health = shard->health().sample();
  }
  return image;
}

Status Engine::save_checkpoint(const std::string& dir) const {
  return persist::save_checkpoint_file(dir, collect_persist_image());
}

Status Engine::install_restored_site(persist::SiteImage image) {
  if (image.chain.empty()) {
    return Status::data_loss("restore: checkpointed site '" + image.site +
                             "' has an empty snapshot chain");
  }
  // Serve the checkpointed serving version when it is still in the chain
  // (it always is in practice — publication and commit are one critical
  // section — but a trimmed chain after a history-limit change falls back
  // to the latest retained version).
  SnapshotPtr serving = image.chain.back();
  for (const SnapshotPtr& snapshot : image.chain) {
    if (snapshot->version() == image.serving_version) {
      serving = snapshot;
      break;
    }
  }
  Result<std::shared_ptr<const loc::Localizer>> localizer =
      build_localizer(serving->database(), nullptr);
  if (!localizer.ok()) return localizer.status();

  std::shared_ptr<serve::SiteShard> shard;
  {
    const auto lock = state_lock();
    if (Status s = store_.restore_history(std::move(image.chain)); !s.ok()) {
      return s;
    }
    shard = shards_->publish(
        image.site, std::make_shared<const serve::PublishedSite>(
                        serve::PublishedSite{std::move(serving),
                                             std::move(localizer).value()}));
  }
  {
    const auto lock = shard->lock_for_update();
    serve::WarmCaches& caches = shard->caches(lock);
    caches.factor_version = image.warm.factor_version;
    caches.factor = image.warm.factor;
    caches.lrr_version = image.warm.lrr_version;
    caches.lrr = image.warm.lrr;
  }
  shard->health().restore(image.health);
  return {};
}

Status Engine::apply_wal_record(const persist::WalRecord& record) {
  if (record.snapshot == nullptr) {
    return Status::data_loss("WAL replay: record without a snapshot");
  }
  const std::string& site = record.snapshot->site();
  const std::uint64_t version = record.snapshot->version();
  Result<std::shared_ptr<const loc::Localizer>> localizer =
      build_localizer(record.snapshot->database(), nullptr);
  if (!localizer.ok()) return localizer.status();

  std::shared_ptr<serve::SiteShard> shard;
  {
    const auto lock = state_lock();
    if (store_.contains(site)) {
      const std::uint64_t next = store_.next_version(site);
      if (version < next) return {};  // checkpoint already covers it
      if (version > next) {
        return Status::data_loss(
            "WAL replay: version gap for site '" + site + "' (have " +
            std::to_string(next - 1) + ", log continues at " +
            std::to_string(version) + ") — a log record is missing");
      }
    } else if (version != 1) {
      return Status::data_loss(
          "WAL replay: site '" + site + "' starts at version " +
          std::to_string(version) +
          " with no checkpoint behind it — the checkpoint is missing");
    }
    if (Status s = store_.put(record.snapshot); !s.ok()) return s;
    shard = shards_->publish(
        site, std::make_shared<const serve::PublishedSite>(
                  serve::PublishedSite{record.snapshot,
                                       std::move(localizer).value()}));
  }
  const auto lock = shard->lock_for_update();
  serve::WarmCaches& caches = shard->caches(lock);
  if (record.warm.factor != nullptr &&
      record.warm.factor_version >= caches.factor_version) {
    caches.factor_version = record.warm.factor_version;
    caches.factor = record.warm.factor;
  }
  if (record.warm.lrr != nullptr &&
      record.warm.lrr_version >= caches.lrr_version) {
    caches.lrr_version = record.warm.lrr_version;
    caches.lrr = record.warm.lrr;
  }
  return {};
}

Status Engine::restore_from(const std::string& dir) {
  {
    const auto lock = state_lock();
    if (!store_.sites().empty()) {
      return Status::failed_precondition(
          "restore_from: engine already has registered sites — recovery "
          "targets a fresh engine");
    }
  }
  persist::EngineImage image;
  bool have_checkpoint = true;
  if (Status s = persist::load_checkpoint_file(dir, image); !s.ok()) {
    if (s.code() != StatusCode::kNotFound) return s;
    have_checkpoint = false;
  }
  std::vector<persist::WalRecord> records;
  if (Status s = persist::read_wal(dir + "/" + persist::kWalFile, records);
      !s.ok()) {
    return s;
  }
  if (!have_checkpoint && records.empty()) {
    return Status::not_found("restore_from: no durable state in '" + dir +
                             "'");
  }
  for (persist::SiteImage& site : image.sites) {
    if (Status s = install_restored_site(std::move(site)); !s.ok()) return s;
  }
  for (const persist::WalRecord& record : records) {
    if (Status s = apply_wal_record(record); !s.ok()) return s;
  }
  return {};
}

}  // namespace iup::api
