// Checksums shared by the HCSR containers and the shard wire protocol
// (common/checksum.hpp): known-answer digests pin the on-disk and wire
// formats, and the LaneHash64 detection properties the HCSR v4 payload
// check relies on are exercised exhaustively on small buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace {

using hipa::fnv1a;
using hipa::lane_hash64;
using hipa::LaneHash64;

/// Deterministic test bytes: b[i] = i * 131 + 7 (mod 256).
std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return b;
}

std::uint64_t lane_of(const std::string& s) {
  return lane_hash64(s.data(), s.size());
}

/// Word-at-a-time FNV-1a (h = (h ^ word) * P per 8-byte word): the
/// naive way to widen FNV, kept here to show what it misses.
std::uint64_t wordwise_fnv(const std::vector<unsigned char>& b) {
  std::uint64_t h = hipa::kFnv1aOffset;
  for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b.data() + i, sizeof w);
    h = (h ^ w) * hipa::kFnv1aPrime;
  }
  return h;
}

}  // namespace

TEST(Checksum, LaneHashMatchesPublishedXxh64Vectors) {
  // LaneHash64 is xxHash64 with seed 0; these are its published digests.
  EXPECT_EQ(lane_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(lane_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(lane_of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(lane_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Checksum, LaneHashKnownAnswersPinTheV4Format) {
  // Every tail shape: bytes only, a 4-byte word, 8-byte words, whole
  // stripes, and stripes plus each tail kind.
  const struct {
    std::size_t bytes;
    std::uint64_t digest;
  } kCases[] = {
      {1, 0xa96c7f0ce858bbb7ULL},    {3, 0xbed43740ee6332bbULL},
      {4, 0xfa212ae44b3bb23dULL},    {7, 0x2744460dd675d2c0ULL},
      {8, 0x994b676b71ce94ddULL},    {12, 0xb92f588ce720786eULL},
      {31, 0x6711d55e306b5d8fULL},   {32, 0x07f7b8e3bc5d6e25ULL},
      {33, 0x09f85eeb4e1cbe9fULL},   {47, 0x79bd9d6dd8c15570ULL},
      {63, 0xb7c9968c066cb6a5ULL},   {64, 0x50d4159a0411632eULL},
      {100, 0x9ddada11d3dc2d8fULL},  {4096, 0xcf05adf75aca30cfULL},
  };
  const std::vector<unsigned char> b = pattern(4096);
  for (const auto& c : kCases) {
    EXPECT_EQ(lane_hash64(b.data(), c.bytes), c.digest) << c.bytes;
  }
}

TEST(Checksum, FnvKnownAnswersPinHeadersAndFrames) {
  // HCSR headers/manifests, v3 payloads and wire frames carry these.
  EXPECT_EQ(fnv1a(nullptr, 0), 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv1a("a", 1), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv1a("foobar", 6), 0x88fad7c0a8ff07f2ULL);
  // Seeding chains spans: hash(a ++ b) == hash(b, seed = hash(a)).
  EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));
}

TEST(Checksum, EveryTwoAndThreeWaySplitMatchesOneShot) {
  // 200 bytes = 6 stripes + 8 bytes: cuts land at every alignment
  // relative to a word and to a stripe.
  const std::vector<unsigned char> b = pattern(200);
  const std::uint64_t want = lane_hash64(b.data(), b.size());
  for (std::size_t i = 0; i <= b.size(); ++i) {
    for (std::size_t j = i; j <= b.size(); ++j) {
      LaneHash64 h;
      h.update(b.data(), i);
      h.update(b.data() + i, j - i);
      h.update(b.data() + j, b.size() - j);
      ASSERT_EQ(h.digest(), want) << "cuts at " << i << ", " << j;
    }
  }
}

TEST(Checksum, RandomMultiSplitsMatchOneShot) {
  const std::vector<unsigned char> b = pattern(4096);
  const std::uint64_t want = lane_hash64(b.data(), b.size());
  hipa::Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    LaneHash64 h;
    std::size_t pos = 0;
    while (pos < b.size()) {
      const std::size_t n = std::min<std::size_t>(
          b.size() - pos, static_cast<std::size_t>(rng.next() % 97));
      h.update(b.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(h.digest(), want) << "trial " << trial;
  }
}

TEST(Checksum, OffsetsThenSourcesChainMatchesOneShot) {
  // The v4 writer hashes a segment as (nv+1) eid_t offsets followed by
  // vid_t sources in two update() calls; the reader hashes the stored
  // payload in one. Odd nv puts the seam off any stripe boundary, odd
  // source counts leave a 4-byte tail.
  for (std::size_t nv = 0; nv < 9; ++nv) {
    for (std::size_t ne = 0; ne < 21; ++ne) {
      std::vector<hipa::eid_t> offsets(nv + 1);
      std::vector<hipa::vid_t> sources(ne);
      for (std::size_t i = 0; i <= nv; ++i) offsets[i] = i * ne / (nv + 1);
      for (std::size_t i = 0; i < ne; ++i) {
        sources[i] = static_cast<hipa::vid_t>(i * 2654435761u);
      }
      std::vector<unsigned char> payload(offsets.size() * sizeof(hipa::eid_t) +
                                         sources.size() * sizeof(hipa::vid_t));
      std::memcpy(payload.data(), offsets.data(),
                  offsets.size() * sizeof(hipa::eid_t));
      if (ne > 0) {
        std::memcpy(payload.data() + offsets.size() * sizeof(hipa::eid_t),
                    sources.data(), sources.size() * sizeof(hipa::vid_t));
      }
      LaneHash64 h;
      h.update(offsets.data(), offsets.size() * sizeof(hipa::eid_t));
      h.update(sources.data(), sources.size() * sizeof(hipa::vid_t));
      ASSERT_EQ(h.digest(), lane_hash64(payload.data(), payload.size()))
          << "nv " << nv << " ne " << ne;
    }
  }
}

TEST(Checksum, DetectsEverySingleBitFlipIn4KiB) {
  std::vector<unsigned char> b = pattern(4096);
  const std::uint64_t base = lane_hash64(b.data(), b.size());
  for (std::size_t byte = 0; byte < b.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      b[byte] ^= static_cast<unsigned char>(1u << bit);
      const std::uint64_t h = lane_hash64(b.data(), b.size());
      b[byte] ^= static_cast<unsigned char>(1u << bit);
      ASSERT_NE(h, base) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Checksum, DetectsTheSameBitFlippedInTwoWords) {
  // 256 bytes = 32 words in 8 stripes: pairs in the same lane, in
  // different lanes, and in the same stripe.
  std::vector<unsigned char> b = pattern(256);
  const std::uint64_t base = lane_hash64(b.data(), b.size());
  const std::uint64_t naive_base = wordwise_fnv(b);
  bool naive_missed = false;
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = i + 1; j < 32; ++j) {
      for (unsigned bit = 0; bit < 64; ++bit) {
        const std::size_t bi = i * 8 + bit / 8;
        const std::size_t bj = j * 8 + bit / 8;
        const auto mask = static_cast<unsigned char>(1u << (bit % 8));
        b[bi] ^= mask;
        b[bj] ^= mask;
        const std::uint64_t h = lane_hash64(b.data(), b.size());
        naive_missed = naive_missed || wordwise_fnv(b) == naive_base;
        b[bi] ^= mask;
        b[bj] ^= mask;
        ASSERT_NE(h, base) << "words " << i << ", " << j << " bit " << bit;
      }
    }
  }
  // Word-wise FNV cancels a top-bit flip in one word against the same
  // flip in a later word (each adds 2^63 mod 2^64 to the state).
  EXPECT_TRUE(naive_missed);
}

TEST(Checksum, DetectsTwoSwappedWords) {
  const std::vector<unsigned char> b = pattern(256);
  const std::uint64_t base = lane_hash64(b.data(), b.size());
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = i + 1; j < 32; ++j) {
      std::vector<unsigned char> s = b;
      std::swap_ranges(s.begin() + i * 8, s.begin() + i * 8 + 8,
                       s.begin() + j * 8);
      if (s == b) continue;  // identical words: nothing changed
      ASSERT_NE(lane_hash64(s.data(), s.size()), base)
          << "words " << i << ", " << j;
    }
  }
}
