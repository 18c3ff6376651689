// Shard registry: lock-free site lookup over an RCU-published map.
//
// The site set changes only at register_site/drop_site — rare,
// administrative events — while every localize resolves a site name.  The
// registry therefore applies the same copy-on-write discipline as the
// shards themselves: the name -> shard map is an immutable value in an
// RcuSlot (see rcu_slot.hpp); find() loads it and looks up without any
// mutex, and mutators copy the map, edit the copy, and publish it with
// one slot store (serialised among themselves by a writer mutex).  A reader
// that resolved a shard just before a concurrent drop keeps a valid shard
// serving the last published bundle — exactly the snapshot-isolation
// story of the store, one level up.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/shard.hpp"

namespace iup::serve {

class ShardRegistry {
 public:
  using ShardPtr = std::shared_ptr<SiteShard>;

  ShardRegistry();

  ShardRegistry(const ShardRegistry&) = delete;
  ShardRegistry& operator=(const ShardRegistry&) = delete;

  /// Lock-free lookup; nullptr for unknown sites.  Safe from any thread,
  /// including inside a ReadPathScope.
  ShardPtr find(const std::string& site) const;

  /// Make `bundle` the published version of `site` and return its shard.
  /// A new site's shard is created already holding `bundle` and only then
  /// enters the map (copy-on-write republish), so find() never returns a
  /// shard with nothing published.  A known site's shard publishes in
  /// place.  Callers serialise publication order (SiteShard::publish).
  ShardPtr publish(const std::string& site, PublishedPtr bundle);

  /// Remove `site` (copy-on-write republish); false when unknown.  The
  /// removed shard stays valid for readers that already resolved it.
  bool erase(const std::string& site);

  /// Registered site names, sorted (copy of the current published map).
  std::vector<std::string> sites() const;

 private:
  using Map = std::unordered_map<std::string, ShardPtr>;
  using MapPtr = std::shared_ptr<const Map>;

  /// Serialises mutators only; find() never touches it.
  mutable std::mutex writer_mutex_;
  RcuSlot<const Map> map_;
};

}  // namespace iup::serve
