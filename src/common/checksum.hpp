// Integrity checksums shared by the on-disk containers (graph/io) and
// the shard wire protocol (shard/proto).
//
//   fnv1a       FNV-1a 64, byte-serial. Each step h = (h ^ byte) * P
//               waits on the previous one, so it runs at well under a
//               byte per cycle. Used where the input is small: HCSR
//               headers and manifests, wire frames, and the payload
//               slices of legacy HCSR v3 files.
//   LaneHash64  Word-wide, four-lane streaming 64-bit hash in the
//               xxHash64 construction (seed 0): four independent
//               accumulators each take one 8-byte word of every
//               32-byte stripe, acc = rotl(acc + w * P2, 31) * P1, so
//               the multiplies pipeline instead of chaining. The lanes
//               are merged, the length and the sub-stripe tail folded
//               in, and a final avalanche mixes every input bit into
//               every output bit. Used for HCSR v4 segment payloads,
//               which are re-verified on every fetch.
//
// Both are pinned by known-answer tests (tests/test_checksum.cpp): the
// digests are part of the on-disk and wire formats.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hipa {

// The offset basis is one decimal digit short of the published FNV-1a
// basis (14695981039346656037). Every HCSR v2/v3 file and every wire
// frame already carries digests made with it, so it stays.
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a over a byte range (seedable so multi-span inputs chain:
/// fnv1a(b, nb, fnv1a(a, na)) == fnv1a(a ++ b)).
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                         std::uint64_t h = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Streaming four-lane 64-bit hash (xxHash64, seed 0). Any split of the
/// input across update() calls yields the one-shot digest.
class LaneHash64 {
 public:
  void update(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += bytes;
    if (buffered_ > 0) {
      // Top up a partial stripe left by the previous call.
      const std::size_t take =
          bytes < kStripeBytes - buffered_ ? bytes : kStripeBytes - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      bytes -= take;
      if (buffered_ < kStripeBytes) return;
      stripes(buf_, 1);
      buffered_ = 0;
    }
    const std::size_t n = bytes / kStripeBytes;
    stripes(p, n);
    p += n * kStripeBytes;
    bytes -= n * kStripeBytes;
    std::memcpy(buf_, p, bytes);
    buffered_ = bytes;
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0;
    if (total_ >= kStripeBytes) {
      h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) +
          std::rotl(acc_[2], 12) + std::rotl(acc_[3], 18);
      for (const std::uint64_t a : acc_) {
        h = (h ^ round(0, a)) * kP1 + kP4;
      }
    } else {
      h = kP5;
    }
    h += total_;
    const unsigned char* p = buf_;
    std::size_t left = buffered_;
    for (; left >= 8; left -= 8, p += 8) {
      h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
    }
    if (left >= 4) {
      h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
      left -= 4;
      p += 4;
    }
    for (; left > 0; --left, ++p) {
      h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::size_t kStripeBytes = 32;
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

  [[nodiscard]] static std::uint64_t round(std::uint64_t acc,
                                           std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  }

  // Words are read little-endian, as every HCSR integer is stored.
  [[nodiscard]] static std::uint64_t load64(const unsigned char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  [[nodiscard]] static std::uint64_t load32(const unsigned char* p) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap32(w);
    }
    return w;
  }

  /// Consume `n` whole stripes. The lanes live in locals so the four
  /// round chains stay in registers and overlap in the pipeline.
  void stripes(const unsigned char* p, std::size_t n) {
    std::uint64_t a0 = acc_[0], a1 = acc_[1], a2 = acc_[2], a3 = acc_[3];
    for (std::size_t i = 0; i < n; ++i, p += kStripeBytes) {
      a0 = round(a0, load64(p));
      a1 = round(a1, load64(p + 8));
      a2 = round(a2, load64(p + 16));
      a3 = round(a3, load64(p + 24));
    }
    acc_[0] = a0;
    acc_[1] = a1;
    acc_[2] = a2;
    acc_[3] = a3;
  }

  std::uint64_t acc_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::uint64_t total_ = 0;
  std::size_t buffered_ = 0;
  unsigned char buf_[kStripeBytes] = {};
};

/// One-shot LaneHash64 digest of a byte range.
[[nodiscard]] inline std::uint64_t lane_hash64(const void* data,
                                               std::size_t bytes) {
  LaneHash64 h;
  h.update(data, bytes);
  return h.digest();
}

}  // namespace hipa
