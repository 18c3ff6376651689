#include "serve/registry.hpp"

#include <algorithm>
#include <utility>

namespace iup::serve {

ShardRegistry::ShardRegistry() {
  map_.store(std::make_shared<const Map>());
}

ShardRegistry::ShardPtr ShardRegistry::find(const std::string& site) const {
  const MapPtr map = map_.load();
  const auto it = map->find(site);
  return it == map->end() ? nullptr : it->second;
}

ShardRegistry::ShardPtr ShardRegistry::publish(const std::string& site,
                                               PublishedPtr bundle) {
  note_state_lock_acquired();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const MapPtr current = map_.load();
  if (const auto it = current->find(site); it != current->end()) {
    it->second->publish(std::move(bundle));
    return it->second;
  }
  auto shard = std::make_shared<SiteShard>(site);
  shard->publish(std::move(bundle));
  auto next = std::make_shared<Map>(*current);
  next->emplace(site, shard);
  map_.store(MapPtr(std::move(next)));
  return shard;
}

bool ShardRegistry::erase(const std::string& site) {
  note_state_lock_acquired();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const MapPtr current = map_.load();
  if (current->find(site) == current->end()) return false;
  auto next = std::make_shared<Map>(*current);
  next->erase(site);
  map_.store(MapPtr(std::move(next)));
  return true;
}

std::vector<std::string> ShardRegistry::sites() const {
  const MapPtr map = map_.load();
  std::vector<std::string> names;
  names.reserve(map->size());
  for (const auto& [name, shard] : *map) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace iup::serve
