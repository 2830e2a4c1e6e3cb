// Object names in the store: a bucket and a name, read as the one
// string `bucket + "/" + name`.
//
// Order, equality and hash all follow that full string, without building
// it. So {"a", "b/c"} and {"a/b", "c"} are one key, and "a-b/x" sorts
// before "a/x" because '-' < '/' (DESIGN §7).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

namespace evolve::storage {

struct ObjectKey {
  std::string bucket;
  std::string name;

  std::string full() const { return bucket + "/" + name; }

  /// Length of full().
  std::size_t full_size() const { return bucket.size() + 1 + name.size(); }

  /// Byte `i` of full(), as an unsigned char.
  unsigned char full_at(std::size_t i) const {
    if (i < bucket.size()) return static_cast<unsigned char>(bucket[i]);
    if (i == bucket.size()) return static_cast<unsigned char>('/');
    return static_cast<unsigned char>(name[i - bucket.size() - 1]);
  }

  /// FNV-1a over the bytes of full().
  std::uint64_t fnv1a() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto add = [&h](unsigned char c) {
      h ^= c;
      h *= 0x100000001b3ULL;
    };
    for (unsigned char c : bucket) add(c);
    add('/');
    for (unsigned char c : name) add(c);
    return h;
  }

  /// Exactly `full() < other.full()`, bytes compared as unsigned chars.
  /// Not a (bucket, name) tuple order.
  bool operator<(const ObjectKey& other) const {
    if (bucket.size() == other.bucket.size()) {
      // Both '/' separators sit at the same offset.
      const int c = bucket.compare(other.bucket);
      return c != 0 ? c < 0 : name < other.name;
    }
    const std::size_t len = full_size();
    const std::size_t other_len = other.full_size();
    for (std::size_t i = 0; i < std::min(len, other_len); ++i) {
      const unsigned char a = full_at(i);
      const unsigned char b = other.full_at(i);
      if (a != b) return a < b;
    }
    return len < other_len;
  }

  /// Exactly `full() == other.full()`.
  bool operator==(const ObjectKey& other) const {
    if (bucket.size() == other.bucket.size()) {
      return bucket == other.bucket && name == other.name;
    }
    const std::size_t len = full_size();
    if (len != other.full_size()) return false;
    for (std::size_t i = 0; i < len; ++i) {
      if (full_at(i) != other.full_at(i)) return false;
    }
    return true;
  }
};

/// Hash for unordered containers: equal full() strings hash alike.
struct ObjectKeyHash {
  std::size_t operator()(const ObjectKey& key) const {
    return static_cast<std::size_t>(key.fnv1a());
  }
};

}  // namespace evolve::storage
