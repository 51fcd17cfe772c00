/**
 * @file
 * Bounded least-recently-used map: the one eviction policy behind the
 * compile service's memory and negative caches and diosd's request-dedup
 * table.
 *
 * A recency list (most recent at the front) plus a hash index into it,
 * so find, insert and erase are O(1) on average. Past `capacity` the
 * least-recently-used entry is evicted and counted; a capacity of 0
 * stores nothing. Not thread-safe: callers hold their own lock.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace diospyros {

template <typename K, typename V, typename Hash = std::hash<K>>
class Lru {
  public:
    explicit Lru(std::size_t capacity) : capacity_(capacity) {}

    /**
     * The value stored under `key`, which becomes the most recently used
     * entry, or nullptr. The pointer stays valid until that entry is
     * erased or evicted.
     */
    V*
    find(const K& key)
    {
        const auto it = index_.find(key);
        if (it == index_.end()) {
            return nullptr;
        }
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /**
     * Stores `value` under `key` as the most recently used entry,
     * replacing any previous value, then evicts the least recently used
     * entry if that puts the map over capacity. Returns the stored value
     * (nullptr when the capacity is 0).
     */
    V*
    insert_or_assign(const K& key, V value)
    {
        if (capacity_ == 0) {
            return nullptr;
        }
        if (V* slot = find(key)) {
            *slot = std::move(value);
            return slot;
        }
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
        if (order_.size() > capacity_) {
            index_.erase(order_.back().first);
            order_.pop_back();
            ++evictions_;
        }
        return &order_.front().second;
    }

    /** Removes `key`; returns whether it was present. Not an eviction. */
    bool
    erase(const K& key)
    {
        const auto it = index_.find(key);
        if (it == index_.end()) {
            return false;
        }
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    std::size_t size() const { return order_.size(); }

    /** Entries displaced by capacity since construction. */
    std::uint64_t evictions() const { return evictions_; }

  private:
    using Entry = std::pair<K, V>;

    std::size_t capacity_;
    std::list<Entry> order_;
    std::unordered_map<K, typename std::list<Entry>::iterator, Hash> index_;
    std::uint64_t evictions_ = 0;
};

}  // namespace diospyros
