// Wire protocol for multi-shard serving: length-prefixed, checksummed
// frames carrying the serve-layer query vocabulary across process
// boundaries. A shard is a partition whose inbox is a socket — the
// message discipline mirrors PCPM's scatter/gather: the router
// scatters subqueries into per-shard envelopes, shards answer with
// epoch-tagged batches, and the router merges.
//
// Frame layout (all integers little-endian, fixed width):
//
//   u32 magic        'HPSH' (0x48505348)
//   u32 type         MsgType
//   u64 payload_len  bytes following the header (<= kMaxFramePayload)
//   u64 checksum     FNV-1a over the payload bytes
//   u8  payload[payload_len]
//
// The checksum is FNV-1a from common/checksum.hpp, the function the
// HCSR containers use for their headers and manifests. A frame that
// fails magic, length, or checksum validation poisons the connection
// (the transport returns false and the peer reconnects); there is no
// resync inside a stream.
//
// Message payloads are encoded with WireWriter/WireReader below.
// Every vertex id on the wire is a GLOBAL id; shards translate to
// their range-local id space internally.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/types.hpp"
#include "serve/query.hpp"
#include "serve/topk_index.hpp"

namespace hipa::shard {

inline constexpr std::uint32_t kFrameMagic = 0x48505348u;  // "HPSH"
/// Hard ceiling on one frame's payload: a batch envelope over the
/// largest sane query set stays far below this; anything bigger is a
/// corrupt length field.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// Message types. Control-plane first, data-plane after. Numbers 5
/// and 6 are retired (shard health travels over the metrics HTTP
/// scrape) and poison the connection like any unknown type.
enum class MsgType : std::uint32_t {
  kHello = 1,            ///< client -> shard: register + request identity
  kHelloAck = 2,         ///< shard -> client: ownership + epoch
  kQueryBatch = 3,       ///< router -> shard: one envelope of subqueries
  kAnswerBatch = 4,      ///< shard -> router: epoch-tagged answers
  kRepublishNotice = 7,  ///< shard -> subscribers: new epoch published
  kError = 8,            ///< shard -> client: request-level failure
  kShutdown = 9,         ///< client -> shard: drain and exit serve loop
};

/// One decoded frame: type + raw payload (already checksum-verified by
/// the transport).
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Payload encoding primitives
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over one payload. Decoding never throws:
/// out-of-bounds reads latch ok() = false and return zeros, and every
/// decode_* function checks ok() + full consumption before returning.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  std::uint64_t get(std::size_t bytes) {
    if (!ok_ || data_.size() - pos_ < bytes) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Client registration. A connection that says hello is subscribed to
/// RepublishNotice pushes for its lifetime.
struct Hello {
  std::uint32_t client_id = 0;  ///< router-chosen, echoed in diagnostics
};

/// Shard identity: which slice of the vertex universe this shard owns,
/// and where it stands. The router builds its shard map from these and
/// validates that the ranges tile [0, num_vertices_global).
struct HelloAck {
  std::uint32_t shard_id = 0;
  VertexRange range{};               ///< owned global vertex range
  vid_t num_vertices_global = 0;     ///< whole-graph vertex universe
  std::uint64_t epoch = 0;           ///< current answer epoch
  std::uint32_t topk_k = 0;          ///< replicated top-k depth
  std::uint16_t metrics_port = 0;    ///< /metrics.json port (0 = none)
};

/// One envelope of subqueries (the scatter unit). Vertex ids global.
struct QueryBatch {
  std::uint64_t request_id = 0;
  std::vector<serve::Query> queries;
};

/// One epoch-tagged sub-answer. Mirrors serve::QueryResult: point and
/// batch answers fill `ranks`, top-k answers fill `topk` (global ids).
struct Answer {
  std::vector<rank_t> ranks;
  std::vector<serve::TopKEntry> topk;
};

/// Answers for one QueryBatch — all evaluated against ONE pinned
/// snapshot, so a single epoch stamps the whole envelope. The router's
/// epoch-consistency logic (mixed-epoch flagging) keys off this.
struct AnswerBatch {
  std::uint64_t request_id = 0;
  std::uint64_t epoch = 0;
  std::vector<Answer> answers;
};

/// Unsolicited push to every subscribed connection after a publish.
struct RepublishNotice {
  std::uint64_t epoch = 0;
};

struct ErrorReply {
  std::uint64_t request_id = 0;
  std::string message;
};

// Encoders produce complete frames; decoders return nullopt on any
// malformed payload (truncation, trailing bytes, bad enum).
[[nodiscard]] Frame encode_hello(const Hello& m);
[[nodiscard]] Frame encode_hello_ack(const HelloAck& m);
[[nodiscard]] Frame encode_query_batch(const QueryBatch& m);
[[nodiscard]] Frame encode_answer_batch(const AnswerBatch& m);
[[nodiscard]] Frame encode_republish_notice(const RepublishNotice& m);
[[nodiscard]] Frame encode_error(const ErrorReply& m);
[[nodiscard]] Frame encode_shutdown();

[[nodiscard]] std::optional<Hello> decode_hello(const Frame& f);
[[nodiscard]] std::optional<HelloAck> decode_hello_ack(const Frame& f);
[[nodiscard]] std::optional<QueryBatch> decode_query_batch(const Frame& f);
[[nodiscard]] std::optional<AnswerBatch> decode_answer_batch(const Frame& f);
[[nodiscard]] std::optional<RepublishNotice> decode_republish_notice(
    const Frame& f);
[[nodiscard]] std::optional<ErrorReply> decode_error(const Frame& f);

}  // namespace hipa::shard
