#include "shard/proto.hpp"

namespace hipa::shard {

namespace {

/// Element-count sanity cap for decoded containers: with 4-byte
/// elements this bounds a single vector at the frame payload ceiling,
/// so a corrupt count field cannot trigger a multi-GB resize before
/// the bounds-checked reads fail.
constexpr std::uint32_t kMaxWireElems =
    static_cast<std::uint32_t>(kMaxFramePayload / 4);

Frame frame(MsgType type, WireWriter&& w) {
  return Frame{type, w.take()};
}

void write_query(WireWriter& w, const serve::Query& q) {
  w.u8(static_cast<std::uint8_t>(q.kind));
  switch (q.kind) {
    case serve::QueryKind::kPoint:
      w.u32(q.vertex);
      break;
    case serve::QueryKind::kBatch:
      w.u32(static_cast<std::uint32_t>(q.vertices.size()));
      for (vid_t v : q.vertices) w.u32(v);
      break;
    case serve::QueryKind::kTopK:
      w.u32(q.topk.k);
      w.u32(q.topk.range.begin);
      w.u32(q.topk.range.end);
      break;
  }
}

bool read_query(WireReader& r, serve::Query* out) {
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(serve::QueryKind::kTopK)) return false;
  out->kind = static_cast<serve::QueryKind>(kind);
  switch (out->kind) {
    case serve::QueryKind::kPoint:
      out->vertex = r.u32();
      break;
    case serve::QueryKind::kBatch: {
      const std::uint32_t n = r.u32();
      if (n > kMaxWireElems) return false;
      out->vertices.resize(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        out->vertices[i] = r.u32();
      }
      break;
    }
    case serve::QueryKind::kTopK:
      out->topk.k = r.u32();
      out->topk.range.begin = r.u32();
      out->topk.range.end = r.u32();
      break;
  }
  return r.ok();
}

}  // namespace

Frame encode_hello(const Hello& m) {
  WireWriter w;
  w.u32(m.client_id);
  return frame(MsgType::kHello, std::move(w));
}

Frame encode_hello_ack(const HelloAck& m) {
  WireWriter w;
  w.u32(m.shard_id);
  w.u32(m.range.begin);
  w.u32(m.range.end);
  w.u32(m.num_vertices_global);
  w.u64(m.epoch);
  w.u32(m.topk_k);
  w.u16(m.metrics_port);
  return frame(MsgType::kHelloAck, std::move(w));
}

Frame encode_query_batch(const QueryBatch& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.u32(static_cast<std::uint32_t>(m.queries.size()));
  for (const serve::Query& q : m.queries) write_query(w, q);
  return frame(MsgType::kQueryBatch, std::move(w));
}

Frame encode_answer_batch(const AnswerBatch& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.answers.size()));
  for (const Answer& a : m.answers) {
    w.u32(static_cast<std::uint32_t>(a.ranks.size()));
    for (rank_t v : a.ranks) w.f32(v);
    w.u32(static_cast<std::uint32_t>(a.topk.size()));
    for (const serve::TopKEntry& e : a.topk) {
      w.u32(e.vertex);
      w.f32(e.rank);
    }
  }
  return frame(MsgType::kAnswerBatch, std::move(w));
}

Frame encode_republish_notice(const RepublishNotice& m) {
  WireWriter w;
  w.u64(m.epoch);
  return frame(MsgType::kRepublishNotice, std::move(w));
}

Frame encode_error(const ErrorReply& m) {
  WireWriter w;
  w.u64(m.request_id);
  w.str(m.message);
  return frame(MsgType::kError, std::move(w));
}

Frame encode_shutdown() { return Frame{MsgType::kShutdown, {}}; }

std::optional<Hello> decode_hello(const Frame& f) {
  if (f.type != MsgType::kHello) return std::nullopt;
  WireReader r(f.payload);
  Hello m;
  m.client_id = r.u32();
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<HelloAck> decode_hello_ack(const Frame& f) {
  if (f.type != MsgType::kHelloAck) return std::nullopt;
  WireReader r(f.payload);
  HelloAck m;
  m.shard_id = r.u32();
  m.range.begin = r.u32();
  m.range.end = r.u32();
  m.num_vertices_global = r.u32();
  m.epoch = r.u64();
  m.topk_k = r.u32();
  m.metrics_port = r.u16();
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<QueryBatch> decode_query_batch(const Frame& f) {
  if (f.type != MsgType::kQueryBatch) return std::nullopt;
  WireReader r(f.payload);
  QueryBatch m;
  m.request_id = r.u64();
  const std::uint32_t n = r.u32();
  if (n > kMaxWireElems) return std::nullopt;
  m.queries.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!read_query(r, &m.queries[i])) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<AnswerBatch> decode_answer_batch(const Frame& f) {
  if (f.type != MsgType::kAnswerBatch) return std::nullopt;
  WireReader r(f.payload);
  AnswerBatch m;
  m.request_id = r.u64();
  m.epoch = r.u64();
  const std::uint32_t n = r.u32();
  if (n > kMaxWireElems) return std::nullopt;
  m.answers.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Answer& a = m.answers[i];
    const std::uint32_t nr = r.u32();
    if (!r.ok() || nr > kMaxWireElems) return std::nullopt;
    a.ranks.resize(nr);
    for (std::uint32_t j = 0; j < nr && r.ok(); ++j) a.ranks[j] = r.f32();
    const std::uint32_t nt = r.u32();
    if (!r.ok() || nt > kMaxWireElems) return std::nullopt;
    a.topk.resize(nt);
    for (std::uint32_t j = 0; j < nt && r.ok(); ++j) {
      a.topk[j].vertex = r.u32();
      a.topk[j].rank = r.f32();
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<RepublishNotice> decode_republish_notice(const Frame& f) {
  if (f.type != MsgType::kRepublishNotice) return std::nullopt;
  WireReader r(f.payload);
  RepublishNotice m;
  m.epoch = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

std::optional<ErrorReply> decode_error(const Frame& f) {
  if (f.type != MsgType::kError) return std::nullopt;
  WireReader r(f.payload);
  ErrorReply m;
  m.request_id = r.u64();
  m.message = r.str();
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace hipa::shard
