// Open-addressing flat hash containers for the hot lookup paths
// (DESIGN.md §16). Every bus delivery, counter bump, and label lookup
// used to walk red-black std::map nodes with string keys; FlatMap /
// FlatSet replace those with a power-of-two bucket array of slot
// indices probed linearly, plus dense slot storage. Lookups hash a
// std::string_view (transparent hash/eq), so string-literal call sites
// never materialise a std::string; a key is copied once, on first
// insertion.
//
// Determinism contract:
//  - Hashing is a fixed FNV-1a / splitmix64 scheme, NOT std::hash —
//    std::hash is implementation-defined, and per-platform iteration
//    or probe differences would leak into anything seeded from a map.
//  - Unordered iteration (begin()/end()) walks the dense slot array in
//    insertion order as mutated by erases (erase swap-removes the last
//    slot into the hole). That order is a pure function of the
//    operation sequence — identical runs iterate identically — but it
//    is NOT sorted. Any site whose iteration order feeds a report, a
//    golden trace, a Summary's add order, or a snapshot image must use
//    sorted_items() instead, which yields key-sorted (key, value)
//    views exactly like the std::map iteration it replaces.
//  - Rehash points are a pure function of the insertion sequence
//    (power-of-two growth at 7/8 load, tombstones included), so
//    pointer/iterator invalidation is deterministic too.
//
// Iterators and references are invalidated by insert (vector growth +
// rehash) and by erase (swap-remove moves the last element). erase(it)
// returns an iterator at the same dense position, which now holds the
// swapped-in element — the idiomatic `it = m.erase(it)` sweep visits
// every element exactly once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace simba::util {

/// Deterministic 64-bit FNV-1a over bytes. constexpr so tests can pin
/// golden hash values.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer: avalanches integral keys (and combines pair
/// hashes) so power-of-two masking sees all input bits.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Transparent string hashing: std::string, std::string_view, and
/// const char* all hash through one string_view overload, so lookups
/// never copy the key.
struct StringHash {
  using is_transparent = void;
  std::uint64_t operator()(std::string_view s) const { return fnv1a(s); }
};

struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

struct IntHash {
  using is_transparent = void;
  std::uint64_t operator()(std::uint64_t v) const { return mix64(v); }
};

/// Default hash/eq selection by key type. Integral keys mix through
/// splitmix64; string-ish keys get the transparent functors above.
template <typename Key>
struct FlatHashFor {
  static_assert(std::is_integral_v<Key>,
                "provide explicit Hash/Eq for this key type");
  using Hash = IntHash;
  using Eq = std::equal_to<>;
};
template <>
struct FlatHashFor<std::string> {
  using Hash = StringHash;
  using Eq = StringEq;
};
template <>
struct FlatHashFor<std::string_view> {
  using Hash = StringHash;
  using Eq = StringEq;
};

/// Open-addressing hash map: power-of-two bucket array of 32-bit slot
/// indices (linear probing, tombstones on erase, 7/8 max load counting
/// tombstones) over a dense std::vector of (key, value) slots.
///
/// Small-map mode: until the map outgrows kSmallCap entries no bucket
/// array exists at all — lookups linearly scan the dense slots (a
/// handful of string_view compares beats hashing at this size), and
/// the first insert reserves exactly kSmallCap slots. An alert IM's
/// headers (8 entries when it has no attributes) therefore cost one
/// allocation total, where a std::map paid one node per header.
/// Crossing kSmallCap builds the bucket array; the graduation point is
/// a pure function of the insertion sequence, so determinism is
/// unaffected.
template <typename Key, typename T,
          typename Hash = typename FlatHashFor<Key>::Hash,
          typename Eq = typename FlatHashFor<Key>::Eq>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<const Key, T>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FlatMap() = default;

  /// Wire-header style literal construction: later duplicates win,
  /// matching `m[k] = v` applied in list order. No up-front reserve:
  /// the first insert grabs all kSmallCap slots at once, which also
  /// covers the headers a transport layer appends afterwards.
  FlatMap(std::initializer_list<std::pair<Key, T>> init) {
    for (const auto& [key, value] : init) (*this)[key] = value;
  }

  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Drops every element but keeps the bucket array's capacity, so a
  /// clear()-then-refill cycle (per-epoch scratch maps) allocates
  /// nothing after the first epoch.
  void clear() {
    slots_.clear();
    tombstones_ = 0;
    std::fill(buckets_.begin(), buckets_.end(), kEmpty);
  }

  void reserve(std::size_t n) {
    slots_.reserve(n);
    // A small reservation stays in small-map mode (no bucket array);
    // the initializer_list ctor relies on this to keep wire-header
    // literals at one allocation.
    if (buckets_.empty() && n <= kSmallCap) return;
    const std::size_t want = bucket_count_for(n);
    if (want > buckets_.size()) rehash(want);
  }

  /// Bucket-array size; exposed so tests can pin growth and
  /// tombstone-reuse behaviour.
  std::size_t bucket_count() const { return buckets_.size(); }
  std::size_t tombstones() const { return tombstones_; }

  iterator begin() { return slots_view(); }
  iterator end() { return slots_view() + slots_.size(); }
  const_iterator begin() const { return slots_view(); }
  const_iterator end() const { return slots_view() + slots_.size(); }
  const_iterator cbegin() const { return begin(); }
  const_iterator cend() const { return end(); }

  template <typename K>
  iterator find(const K& key) {
    const std::size_t s = find_slot(key);
    return s == kNpos ? end() : begin() + s;
  }
  template <typename K>
  const_iterator find(const K& key) const {
    const std::size_t s = find_slot(key);
    return s == kNpos ? end() : begin() + s;
  }
  template <typename K>
  bool contains(const K& key) const {
    return find_slot(key) != kNpos;
  }
  template <typename K>
  std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  /// std::map::emplace semantics: inserts (key, args...) unless the
  /// key is present; never overwrites. Accepts heterogeneous keys
  /// (string_view / const char* against std::string) and copies the
  /// key only when actually inserting.
  template <typename K, typename... Args>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args) {
    return try_emplace(std::forward<K>(key), std::forward<Args>(args)...);
  }
  template <typename K, typename... Args>
  std::pair<iterator, bool> try_emplace(K&& key, Args&&... args) {
    if (buckets_.empty()) {
      const std::size_t s = find_slot(key);
      if (s != kNpos) return {begin() + s, false};
      if (slots_.size() < kSmallCap) {
        if (slots_.capacity() == 0) slots_.reserve(kSmallCap);
        slots_.emplace_back(Key(std::forward<K>(key)),
                            T(std::forward<Args>(args)...));
        return {begin() + (slots_.size() - 1), true};
      }
      // Fall through: prepare_insert builds the bucket array.
    }
    const InsertPos pos = prepare_insert(key);
    if (!pos.fresh) return {begin() + buckets_[pos.bucket], false};
    slots_.emplace_back(Key(std::forward<K>(key)),
                        T(std::forward<Args>(args)...));
    commit_insert(pos);
    return {begin() + (slots_.size() - 1), true};
  }
  template <typename K, typename V>
  std::pair<iterator, bool> insert_or_assign(K&& key, V&& value) {
    const auto [it, fresh] = try_emplace(std::forward<K>(key));
    it->second = std::forward<V>(value);
    return {it, fresh};
  }

  template <typename K>
  T& operator[](K&& key) {
    return try_emplace(std::forward<K>(key)).first->second;
  }

  /// std::map::at: the mapped value, or std::out_of_range on a miss.
  template <typename K>
  T& at(const K& key) {
    const std::size_t s = find_slot(key);
    if (s == kNpos) throw std::out_of_range("FlatMap::at: key not found");
    return slots_[s].second;
  }
  template <typename K>
  const T& at(const K& key) const {
    const std::size_t s = find_slot(key);
    if (s == kNpos) throw std::out_of_range("FlatMap::at: key not found");
    return slots_[s].second;
  }

  template <typename K>
  std::size_t erase(const K& key) {
    if (buckets_.empty()) {
      const std::size_t s = find_slot(key);
      if (s == kNpos) return 0;
      erase_slot_linear(s);
      return 1;
    }
    const std::size_t b = find_bucket(key);
    if (b == kNpos) return 0;
    erase_bucket(b);
    return 1;
  }
  /// Swap-remove erase: the last slot moves into the hole, and the
  /// returned iterator points at that same dense position — an
  /// `it = m.erase(it)` sweep still visits every element once. (The
  /// exact-match non-template overloads keep the heterogeneous
  /// erase(const K&) template from swallowing iterator arguments.)
  iterator erase(const_iterator pos) {
    const std::size_t slot = static_cast<std::size_t>(pos - cbegin());
    if (buckets_.empty()) {
      erase_slot_linear(slot);
    } else {
      erase_bucket(find_bucket(slots_[slot].first));
    }
    return begin() + slot;
  }
  iterator erase(iterator pos) { return erase(const_iterator(pos)); }

  /// Key-sorted view for order-sensitive iteration (reports, golden
  /// traces, Summary add order, snapshot images). Yields the same
  /// `const std::pair<const Key, T>&` sequence the std::map iteration
  /// it replaces produced.
  class SortedView {
   public:
    explicit SortedView(const FlatMap& map) {
      items_.reserve(map.size());
      for (const value_type& v : map) items_.push_back(&v);
      std::sort(items_.begin(), items_.end(),
                [](const value_type* a, const value_type* b) {
                  return a->first < b->first;
                });
    }
    class iterator {
     public:
      explicit iterator(const value_type* const* p) : p_(p) {}
      const value_type& operator*() const { return **p_; }
      const value_type* operator->() const { return *p_; }
      iterator& operator++() {
        ++p_;
        return *this;
      }
      bool operator==(const iterator& o) const { return p_ == o.p_; }
      bool operator!=(const iterator& o) const { return p_ != o.p_; }

     private:
      const value_type* const* p_;
    };
    iterator begin() const { return iterator(items_.data()); }
    iterator end() const { return iterator(items_.data() + items_.size()); }
    std::size_t size() const { return items_.size(); }

   private:
    std::vector<const value_type*> items_;
  };
  SortedView sorted_items() const { return SortedView(*this); }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  // Small-map mode threshold: no bucket array until the map holds more
  // than this many entries. 8 keeps a wire-header map to a single
  // 8-slot allocation while a linear string_view scan stays cheaper
  // than hash+probe at this size.
  static constexpr std::size_t kSmallCap = 8;

  struct InsertPos {
    std::size_t bucket = kNpos;
    bool fresh = false;
    bool was_tombstone = false;
  };

  // The dense slots store std::pair<Key, T> (assignable, so erase can
  // swap-remove) but iterators expose std::pair<const Key, T> so call
  // sites cannot mutate a key in place and corrupt the bucket array.
  // The two specialisations are layout-identical; this is the
  // standard flat-hash-map aliasing trick.
  static_assert(sizeof(std::pair<Key, T>) == sizeof(value_type));
  static_assert(alignof(std::pair<Key, T>) == alignof(value_type));
  value_type* slots_view() {
    return reinterpret_cast<value_type*>(slots_.data());
  }
  const value_type* slots_view() const {
    return reinterpret_cast<const value_type*>(slots_.data());
  }

  static std::size_t bucket_count_for(std::size_t n_slots) {
    std::size_t want = 16;
    // Smallest power of two keeping n_slots strictly under 7/8 load.
    while (n_slots * 8 >= want * 7) want *= 2;
    return want;
  }

  template <typename K>
  std::size_t find_bucket(const K& key) const {
    if (buckets_.empty()) return kNpos;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = hash_(key) & mask;
    while (true) {
      const std::uint32_t s = buckets_[b];
      if (s == kEmpty) return kNpos;
      if (s != kTombstone && eq_(slots_[s].first, key)) return b;
      b = (b + 1) & mask;
    }
  }

  /// Slot index for `key`, or kNpos: linear scan in small-map mode,
  /// bucket probe once graduated.
  template <typename K>
  std::size_t find_slot(const K& key) const {
    if (buckets_.empty()) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (eq_(slots_[i].first, key)) return i;
      }
      return kNpos;
    }
    const std::size_t b = find_bucket(key);
    return b == kNpos ? kNpos : buckets_[b];
  }

  /// Small-map erase: same swap-remove as erase_bucket, no bucket
  /// array to repoint and no tombstone to leave behind.
  void erase_slot_linear(std::size_t slot) {
    const std::size_t last = slots_.size() - 1;
    if (slot != last) slots_[slot] = std::move(slots_[last]);
    slots_.pop_back();
  }

  /// Probes for `key`, growing/rehashing first if the next insert
  /// could exceed 7/8 load (tombstones count — they lengthen probe
  /// chains just like live entries). Returns either the existing
  /// bucket (fresh=false) or the insertion bucket: the first tombstone
  /// on the probe path if any (reuse keeps long-lived churn maps from
  /// growing without bound), else the terminating empty bucket.
  template <typename K>
  InsertPos prepare_insert(const K& key) {
    if (buckets_.empty() ||
        (slots_.size() + tombstones_ + 1) * 8 >= buckets_.size() * 7) {
      rehash(bucket_count_for(slots_.size() + 1));
    }
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = hash_(key) & mask;
    InsertPos pos;
    while (true) {
      const std::uint32_t s = buckets_[b];
      if (s == kEmpty) break;
      if (s == kTombstone) {
        if (pos.bucket == kNpos) {
          pos.bucket = b;
          pos.was_tombstone = true;
        }
      } else if (eq_(slots_[s].first, key)) {
        return InsertPos{b, false, false};
      }
      b = (b + 1) & mask;
    }
    if (pos.bucket == kNpos) pos.bucket = b;
    pos.fresh = true;
    return pos;
  }
  /// Publishes the just-emplaced last slot under the bucket chosen by
  /// prepare_insert (split so the slot emplace can construct Key/T
  /// in place between the two calls).
  void commit_insert(const InsertPos& pos) {
    if (pos.was_tombstone) --tombstones_;
    buckets_[pos.bucket] = static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void erase_bucket(std::size_t b) {
    const std::uint32_t slot = buckets_[b];
    buckets_[b] = kTombstone;
    ++tombstones_;
    const std::uint32_t last = static_cast<std::uint32_t>(slots_.size() - 1);
    if (slot != last) {
      // Find the bucket that points at the last slot *before* moving
      // it, then swap-remove and repoint.
      const std::size_t lb = find_bucket(slots_[last].first);
      slots_[slot] = std::move(slots_[last]);
      buckets_[lb] = slot;
    }
    slots_.pop_back();
  }

  void rehash(std::size_t n_buckets) {
    buckets_.assign(n_buckets, kEmpty);
    tombstones_ = 0;
    const std::size_t mask = n_buckets - 1;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      std::size_t b = hash_(slots_[i].first) & mask;
      while (buckets_[b] != kEmpty) b = (b + 1) & mask;
      buckets_[b] = i;
    }
  }

  std::vector<std::uint32_t> buckets_;
  std::vector<std::pair<Key, T>> slots_;
  std::size_t tombstones_ = 0;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] Eq eq_;
};

/// FlatSet: a FlatMap with an empty mapped type, so the set shares the
/// map's table, small-set mode and determinism contract.
template <typename Key, typename Hash = typename FlatHashFor<Key>::Hash,
          typename Eq = typename FlatHashFor<Key>::Eq>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  std::size_t bucket_count() const { return map_.bucket_count(); }

  template <typename K>
  bool contains(const K& key) const {
    return map_.contains(key);
  }
  template <typename K>
  std::size_t count(const K& key) const {
    return map_.count(key);
  }

  template <typename K>
  std::pair<const Key*, bool> insert(K&& key) {
    const auto [it, fresh] = map_.try_emplace(std::forward<K>(key));
    return {&it->first, fresh};
  }

  template <typename K>
  std::size_t erase(const K& key) {
    return map_.erase(key);
  }

  /// The keys in sorted order, for report and snapshot sites.
  std::vector<Key> sorted_items() const {
    std::vector<Key> keys;
    keys.reserve(map_.size());
    for (const auto& slot : map_) keys.push_back(slot.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  struct Unit {};
  FlatMap<Key, Unit, Hash, Eq> map_;
};

}  // namespace simba::util
