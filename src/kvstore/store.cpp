#include "kvstore/store.hpp"

#include <stdexcept>
#include <string>

namespace flowsched {

KeyValueStore::KeyValueStore(const StoreConfig& config, Rng& rng)
    : KeyValueStore(config, [&config, &rng] {
        auto w = zipf_weights(config.keys, config.zipf_s);
        if (config.shuffle_key_ranks) rng.shuffle(w);
        return w;
      }()) {}

KeyValueStore::KeyValueStore(const StoreConfig& config,
                             std::vector<double> key_popularity)
    : config_(config), key_popularity_(std::move(key_popularity)) {
  if (config_.m <= 0) throw std::invalid_argument("KeyValueStore: m <= 0");
  if (config_.keys <= 0) throw std::invalid_argument("KeyValueStore: keys <= 0");
  if (static_cast<int>(key_popularity_.size()) != config_.keys) {
    throw std::invalid_argument("KeyValueStore: key popularity size != keys");
  }

  double total = 0;
  for (double w : key_popularity_) {
    if (w < 0) throw std::invalid_argument("KeyValueStore: negative popularity");
    total += w;
  }
  if (!(total > 0)) throw std::invalid_argument("KeyValueStore: zero popularity");
  for (double& w : key_popularity_) w /= total;

  key_sampler_.emplace(key_popularity_);

  replica_by_owner_ = replica_sets(config_.strategy, config_.k, config_.m);

  machine_popularity_.assign(static_cast<std::size_t>(config_.m), 0.0);
  for (int key = 0; key < config_.keys; ++key) {
    machine_popularity_[static_cast<std::size_t>(owner(key))] +=
        key_popularity_[static_cast<std::size_t>(key)];
  }
}

void KeyValueStore::throw_key_range(int key) const {
  throw std::out_of_range("KeyValueStore: key " + std::to_string(key) +
                          " outside [0, " + std::to_string(config_.keys) + ")");
}

}  // namespace flowsched
