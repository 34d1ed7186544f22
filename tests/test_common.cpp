// Unit tests for src/common: numeric helpers, RNGs, aligned buffers,
// error checking, logging, the minimal JSON reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/minijson.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace hipa {
namespace {

TEST(Numeric, CeilDiv) {
  EXPECT_EQ(ceil_div(10u, 3u), 4u);
  EXPECT_EQ(ceil_div(9u, 3u), 3u);
  EXPECT_EQ(ceil_div(1u, 3u), 1u);
  EXPECT_EQ(ceil_div(0u, 3u), 0u);
  EXPECT_EQ(ceil_div<std::uint64_t>(1ULL << 40, 7), ((1ULL << 40) + 6) / 7);
}

TEST(Numeric, RoundUp) {
  EXPECT_EQ(round_up(10u, 4u), 12u);
  EXPECT_EQ(round_up(12u, 4u), 12u);
  EXPECT_EQ(round_up(0u, 4u), 0u);
}

TEST(Numeric, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 40));
  EXPECT_FALSE(is_pow2((1ULL << 40) + 1));
}

TEST(Numeric, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(1024), 10u);
  EXPECT_EQ(log2_floor(1025), 10u);
}

TEST(Numeric, ExclusiveScan) {
  const std::vector<std::uint32_t> in = {3, 0, 5, 2};
  std::vector<std::uint64_t> out;
  exclusive_scan<std::uint32_t, std::uint64_t>(in, out);
  const std::vector<std::uint64_t> expect = {0, 3, 3, 8, 10};
  EXPECT_EQ(out, expect);
}

TEST(Numeric, ExclusiveScanEmpty) {
  std::vector<std::uint64_t> out;
  exclusive_scan<std::uint32_t, std::uint64_t>(
      std::span<const std::uint32_t>{}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(Numeric, EvenChunksCoverAndBalance) {
  const auto b = even_chunks<std::uint32_t>(10, 3);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 10u);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    const auto sz = b[i + 1] - b[i];
    EXPECT_GE(sz, 3u);
    EXPECT_LE(sz, 4u);
  }
}

TEST(Numeric, EvenChunksMorePartsThanItems) {
  const auto b = even_chunks<std::uint32_t>(2, 5);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 2u);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    EXPECT_LE(b[i + 1] - b[i], 1u);
  }
}

TEST(Random, SplitMixDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 a(1);
  Xoshiro256 b(1);
  Xoshiro256 c(2);
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Random, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, BoundedStaysInBound) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.bounded(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  // All 17 buckets should be hit in 10k draws.
  EXPECT_EQ(seen.size(), 17u);
}

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLine, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, FillZero) {
  AlignedBuffer<double> buf(64);
  buf.fill_zero();
  for (double v : buf) EXPECT_EQ(v, 0.0);
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer<int> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.span().size(), 0u);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    HIPA_CHECK(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(HIPA_CHECK(true, "never"));
}

TEST(Logging, LevelFilter) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  HIPA_INFO("suppressed");  // must not crash
  set_log_level(LogLevel::kInfo);
}

TEST(Timer, MeasuresForwardTime) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Types, VertexRange) {
  constexpr VertexRange r{10, 20};
  EXPECT_EQ(r.size(), 10u);
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(19));
  EXPECT_FALSE(r.contains(20));
  EXPECT_FALSE(r.contains(9));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((VertexRange{5, 5}).empty());
}

/// `text` alone, as an array element, and as an object member.
std::vector<std::string> json_contexts(const std::string& text) {
  std::string in_array = "[";
  in_array.append(text).append("]");
  std::string in_object = R"({"k": )";
  in_object.append(text).append("}");
  return {text, in_array, in_object};
}

TEST(MiniJson, NumbersFollowRfc8259Exactly) {
  struct Case {
    const char* text;
    double value;
  };
  const Case accept[] = {
      {"0", 0.0},     {"-0", -0.0},      {"7", 7.0},
      {"-12", -12.0}, {"1.5", 1.5},      {"0.25", 0.25},
      {"1e3", 1e3},   {"1E+2", 1e2},     {"-2.5e-3", -2.5e-3},
      {"1e308", 1e308}, {"123456789", 123456789.0}};
  for (const Case& c : accept) {
    for (const std::string& doc : json_contexts(c.text)) {
      std::string err;
      const json::ValuePtr v = json::parse(doc, &err);
      ASSERT_NE(v, nullptr) << doc << ": " << err;
      const json::Value* n = v.get();
      if (v->is(json::Value::Type::kArray)) n = v->array[0].get();
      if (v->is(json::Value::Type::kObject)) n = v->find("k");
      ASSERT_TRUE(n != nullptr && n->is(json::Value::Type::kNumber)) << doc;
      EXPECT_EQ(n->number, c.value) << doc;
    }
  }
  // The first ten were accepted (as 0, 1.2, 1, 0.5 or inf) before the
  // grammar was made strict.
  const char* reject[] = {"-",  "e",  "--3", "1.2.3", "1-2",    "1e",
                          "01", "+1", ".5",  "1e999", "-1e999", "1.",
                          "1.e5", "-01", "0x10", "-inf", "1e+",  "00"};
  for (const char* text : reject) {
    for (const std::string& doc : json_contexts(text)) {
      std::string err;
      EXPECT_EQ(json::parse(doc, &err), nullptr) << doc << " was accepted";
      EXPECT_FALSE(err.empty()) << doc;
    }
  }
}

TEST(MiniJson, NestingDepthIsCapped) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NE(json::parse(nested(json::Parser::kMaxDepth)), nullptr);
  std::string err;
  EXPECT_EQ(json::parse(nested(json::Parser::kMaxDepth + 1), &err), nullptr);
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  // Deep enough to overflow an 8 MiB stack without the cap.
  err.clear();
  EXPECT_EQ(json::parse(nested(200000), &err), nullptr);
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += R"({"a":)";
  objects += "1" + std::string(200000, '}');
  err.clear();
  EXPECT_EQ(json::parse(objects, &err), nullptr);
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

}  // namespace
}  // namespace hipa
