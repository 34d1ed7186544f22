#include "graph/io.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#define HIPA_IO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/checksum.hpp"
#include "common/error.hpp"

namespace hipa::graph {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_file(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  HIPA_CHECK(f != nullptr, "cannot open '" << path << "' (" << mode << ')');
  return f;
}

// HCSR container versions. v2 adds a header checksum so foreign or
// corrupted files fail with a clear message instead of an absurd
// allocation; v1 files (no checksum) are still accepted. v3 is the
// segmented out-of-core container (manifest + per-destination-range
// payload slices) and is read exclusively through SegmentedCsr. v4 is
// v3 with the payload checksum switched from FNV-1a to LaneHash64;
// header and manifest checksums stay FNV-1a. The writer emits v4 only;
// both segmented versions stay readable.
constexpr std::uint64_t kMagicV1 = 0x48435352'00000001ULL;  // "HCSR" v1
constexpr std::uint64_t kMagicV2 = 0x48435352'00000002ULL;  // "HCSR" v2
constexpr std::uint64_t kMagicV3 = 0x48435352'00000003ULL;  // "HCSR" v3
constexpr std::uint64_t kMagicV4 = 0x48435352'00000004ULL;  // "HCSR" v4

/// Payload checksum of a segmented file with magic `magic` (v3 or v4).
std::uint64_t payload_checksum(std::uint64_t magic, const void* data,
                               std::size_t bytes) {
  return magic == kMagicV3 ? fnv1a(data, bytes) : lane_hash64(data, bytes);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// FNV-1a over the header's magic/V/E words — cheap, order-sensitive,
/// and catches both bit rot in the counts and files that merely start
/// with the right magic.
std::uint64_t header_checksum(std::uint64_t magic, std::uint64_t v,
                              std::uint64_t e) {
  const std::uint64_t words[3] = {magic, v, e};
  return fnv1a(words, sizeof words);
}

/// Segmented (v3/v4) header checksum: magic/V/E/S words.
std::uint64_t header_checksum_segmented(std::uint64_t magic, std::uint64_t v,
                                        std::uint64_t e, std::uint64_t s) {
  const std::uint64_t words[4] = {magic, v, e, s};
  return fnv1a(words, sizeof words);
}

constexpr std::size_t kSegHeaderBytes = 40;
constexpr std::size_t kManifestEntryBytes = 5 * sizeof(std::uint64_t);

constexpr std::size_t round_up_page(std::size_t n) {
  return (n + kPageSize - 1) / kPageSize * kPageSize;
}

struct HcsrHeader {
  std::uint64_t magic = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t checksum = 0;  ///< v2 only

  [[nodiscard]] std::size_t size_bytes() const {
    return magic == kMagicV1 ? 24 : 32;
  }
  [[nodiscard]] std::size_t offsets_bytes() const {
    return static_cast<std::size_t>(num_vertices + 1) * sizeof(eid_t);
  }
  [[nodiscard]] std::size_t targets_bytes() const {
    return static_cast<std::size_t>(num_edges) * sizeof(vid_t);
  }
  [[nodiscard]] std::size_t file_bytes() const {
    return size_bytes() + offsets_bytes() + targets_bytes();
  }
};

/// Parse + validate an HCSR header from `raw` (at least
/// `raw_bytes` readable). `file_bytes` is the actual on-disk size;
/// both truncated and padded files are rejected with exact numbers.
HcsrHeader check_header(const std::string& path, const void* raw,
                        std::size_t raw_bytes, std::size_t file_bytes) {
  HIPA_CHECK(raw_bytes >= 24, "'" << path << "' is not a HCSR file: only "
                                  << raw_bytes
                                  << " bytes, smaller than any header");
  HcsrHeader h;
  const char* p = static_cast<const char*>(raw);
  std::memcpy(&h.magic, p, 8);
  HIPA_CHECK(h.magic != kMagicV3 && h.magic != kMagicV4,
             "'" << path << "' is a segmented HCSR v"
                 << (h.magic == kMagicV3 ? 3 : 4)
                 << " file — segmented HCSR v3/v4 files load with "
                    "graph::SegmentedCsr::open (the out-of-core path); "
                    "plain load_csr reads v1/v2 only");
  HIPA_CHECK(h.magic == kMagicV1 || h.magic == kMagicV2,
             "'" << path << "' is not a HCSR file (magic 0x" << std::hex
                 << h.magic << std::dec
                 << "; expected HCSR v1 or v2) — refusing to parse a "
                    "foreign format");
  std::memcpy(&h.num_vertices, p + 8, 8);
  std::memcpy(&h.num_edges, p + 16, 8);
  if (h.magic == kMagicV2) {
    HIPA_CHECK(raw_bytes >= 32, "'" << path
                                    << "' truncated inside the v2 header ("
                                    << raw_bytes << " of 32 bytes)");
    std::memcpy(&h.checksum, p + 24, 8);
    const std::uint64_t want =
        header_checksum(h.magic, h.num_vertices, h.num_edges);
    HIPA_CHECK(h.checksum == want,
               "'" << path << "' header checksum mismatch (file 0x"
                   << std::hex << h.checksum << ", computed 0x" << want
                   << std::dec << ") — corrupted or foreign file");
  }
  HIPA_CHECK(h.num_vertices < kInvalidVid,
             "'" << path << "' vertex count " << h.num_vertices
                 << " overflows vid_t — corrupted header");
  HIPA_CHECK(file_bytes == h.file_bytes(),
             "'" << path << "' size mismatch: " << file_bytes
                 << " bytes on disk, header implies " << h.file_bytes()
                 << " (" << h.num_vertices << " vertices, " << h.num_edges
                 << " edges) — truncated or corrupted file");
  return h;
}

CsrGraph payload_to_csr(const HcsrHeader& h, const char* payload) {
  AlignedBuffer<eid_t> offsets(h.num_vertices + 1);
  AlignedBuffer<vid_t> targets(h.num_edges);
  std::memcpy(offsets.data(), payload, h.offsets_bytes());
  std::memcpy(targets.data(), payload + h.offsets_bytes(),
              h.targets_bytes());
  return CsrGraph(std::move(offsets), std::move(targets));
}

void write_exact(std::FILE* f, const void* p, std::size_t bytes) {
  HIPA_CHECK(std::fwrite(p, 1, bytes, f) == bytes, "short write");
}

void write_zeros(std::FILE* f, std::size_t bytes) {
  static const char zeros[4096] = {};
  while (bytes > 0) {
    const std::size_t n = std::min(bytes, sizeof zeros);
    write_exact(f, zeros, n);
    bytes -= n;
  }
}

/// Portable stdio fallback (and the path taken when mmap fails):
/// size the file via seek, validate the header against it, then read
/// the payload with exact-size checks.
CsrGraph load_csr_stdio(const std::string& path) {
  FilePtr f = open_file(path, "rb");
  HIPA_CHECK(std::fseek(f.get(), 0, SEEK_END) == 0,
             "cannot seek '" << path << "'");
  const long end = std::ftell(f.get());
  HIPA_CHECK(end >= 0, "cannot size '" << path << "'");
  const auto file_bytes = static_cast<std::size_t>(end);
  std::rewind(f.get());

  unsigned char head[32] = {};
  const std::size_t head_bytes =
      std::fread(head, 1, sizeof head, f.get());
  const HcsrHeader h = check_header(path, head, head_bytes, file_bytes);

  HIPA_CHECK(std::fseek(f.get(), static_cast<long>(h.size_bytes()),
                        SEEK_SET) == 0,
             "cannot seek '" << path << "'");
  AlignedBuffer<eid_t> offsets(h.num_vertices + 1);
  AlignedBuffer<vid_t> targets(h.num_edges);
  HIPA_CHECK(std::fread(offsets.data(), 1, h.offsets_bytes(), f.get()) ==
                 h.offsets_bytes(),
             "'" << path << "' truncated inside the offsets array");
  HIPA_CHECK(std::fread(targets.data(), 1, h.targets_bytes(), f.get()) ==
                 h.targets_bytes(),
             "'" << path << "' truncated inside the targets array");
  return CsrGraph(std::move(offsets), std::move(targets));
}

#if HIPA_IO_HAVE_MMAP
/// mmap-backed load: one mapping gives the exact file size up front
/// (so truncation is a precise error, not a mid-read surprise) and the
/// kernel streams pages in without stdio's double buffering. The
/// payload is copied into page-aligned AlignedBuffers — the CSR
/// arrays' alignment contract (cache-line minimum) cannot be met by
/// data sitting at file offset 24/32 inside the mapping.
bool load_csr_mmap(const std::string& path, CsrGraph* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  HIPA_CHECK(fd >= 0, "cannot open '" << path << "' (rb)");
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat st = {};
  HIPA_CHECK(::fstat(fd, &st) == 0, "cannot stat '" << path << "'");
  HIPA_CHECK(S_ISREG(st.st_mode),
             "'" << path << "' is not a regular file");
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  // Degenerate sizes still go through check_header for the real error
  // message, with an empty mapping.
  if (file_bytes == 0) {
    (void)check_header(path, "", 0, 0);
  }

  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) return false;  // caller falls back to stdio
  struct MapCloser {
    void* p;
    std::size_t n;
    ~MapCloser() { ::munmap(p, n); }
  } unmapper{map, file_bytes};

  const HcsrHeader h = check_header(path, map, file_bytes, file_bytes);
  *out = payload_to_csr(h, static_cast<const char*>(map) +
                               h.size_bytes());
  return true;
}
#endif

}  // namespace

EdgeListInfo stream_edge_list(
    const std::string& path,
    const std::function<void(std::span<const Edge>)>& sink,
    std::size_t chunk_edges) {
  HIPA_CHECK(chunk_edges > 0, "stream_edge_list: chunk_edges must be >= 1");
  FilePtr f = open_file(path, "r");
  EdgeListInfo info;
  std::vector<Edge> chunk;
  chunk.reserve(chunk_edges);
  char line[4096];
  std::uint64_t lineno = 0;
  while (std::fgets(line, sizeof line, f.get()) != nullptr) {
    ++lineno;
    const std::size_t len = std::strlen(line);
    HIPA_CHECK(len + 1 < sizeof line || line[len - 1] == '\n',
               "" << path << ":" << lineno << ": line exceeds "
                    << (sizeof line - 2) << " characters");
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\r' || *p == '\0') {
      continue;  // comment / blank line
    }
    const auto parse_id = [&](const char*& cur, const char* what) {
      while (*cur == ' ' || *cur == '\t') ++cur;
      HIPA_CHECK(*cur != '\0' && *cur != '\n' && *cur != '\r',
                 "" << path << ":" << lineno << ": missing " << what);
      HIPA_CHECK(*cur != '-', "" << path << ":" << lineno << ": negative "
                                   << what << " is not a vertex id");
      HIPA_CHECK(
          std::isdigit(static_cast<unsigned char>(*cur)) != 0,
          "" << path << ":" << lineno << ": malformed " << what
               << " (expected an unsigned integer, got '" << *cur << "')");
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(cur, &end, 10);
      HIPA_CHECK(errno != ERANGE && v < kInvalidVid,
                 "" << path << ":" << lineno << ": " << what
                      << " overflows vid_t (max "
                      << (kInvalidVid - 1) << ")");
      cur = end;
      return static_cast<vid_t>(v);
    };
    Edge e;
    e.src = parse_id(p, "source id");
    e.dst = parse_id(p, "destination id");
    while (*p == ' ' || *p == '\t') ++p;
    HIPA_CHECK(*p == '\0' || *p == '\n' || *p == '\r',
               "" << path << ":" << lineno
                    << ": trailing garbage after the edge ('" << *p
                    << "...')");
    chunk.push_back(e);
    ++info.num_edges;
    info.num_vertices =
        std::max(info.num_vertices, std::max(e.src, e.dst) + 1);
    if (chunk.size() >= chunk_edges) {
      sink(std::span<const Edge>(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) sink(std::span<const Edge>(chunk));
  return info;
}

EdgeListFile read_edge_list(const std::string& path) {
  EdgeListFile out;
  const EdgeListInfo info = stream_edge_list(
      path, [&](std::span<const Edge> chunk) {
        out.edges.insert(out.edges.end(), chunk.begin(), chunk.end());
      });
  out.num_vertices = info.num_vertices;
  return out;
}

void write_edge_list(const std::string& path, vid_t num_vertices,
                     const std::vector<Edge>& edges) {
  FilePtr f = open_file(path, "w");
  std::fprintf(f.get(), "# hipa edge list: %u vertices, %zu edges\n",
               num_vertices, edges.size());
  for (const Edge& e : edges) {
    std::fprintf(f.get(), "%u %u\n", e.src, e.dst);
  }
}

void save_csr(const std::string& path, const CsrGraph& g) {
  FilePtr f = open_file(path, "wb");
  const std::uint64_t v = g.num_vertices();
  const std::uint64_t e = g.num_edges();
  const std::uint64_t sum = header_checksum(kMagicV2, v, e);
  write_exact(f.get(), &kMagicV2, sizeof kMagicV2);
  write_exact(f.get(), &v, sizeof v);
  write_exact(f.get(), &e, sizeof e);
  write_exact(f.get(), &sum, sizeof sum);
  write_exact(f.get(), g.offsets().data(), g.offsets().size_bytes());
  write_exact(f.get(), g.targets().data(), g.targets().size_bytes());
}

CsrGraph load_csr(const std::string& path) {
#if HIPA_IO_HAVE_MMAP
  CsrGraph g;
  if (load_csr_mmap(path, &g)) return g;
  // mmap refused (exotic filesystem, resource limits): same
  // validations on the buffered path.
#endif
  return load_csr_stdio(path);
}

// ---------------------------------------------------------------------------
// Segmented HCSR v3/v4
// ---------------------------------------------------------------------------

std::vector<SegmentPlan> plan_segments(
    std::span<const std::uint64_t> in_degrees,
    std::size_t target_segment_bytes) {
  HIPA_CHECK(target_segment_bytes > 0,
             "plan_segments: target_segment_bytes must be >= 1");
  std::vector<SegmentPlan> out;
  const std::size_t n = in_degrees.size();
  std::size_t begin = 0;
  std::uint64_t edges = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t with = edges + in_degrees[v];
    if (v > begin && segment_payload_bytes(v + 1 - begin, with) >
                         target_segment_bytes) {
      out.push_back(SegmentPlan{
          VertexRange{static_cast<vid_t>(begin), static_cast<vid_t>(v)},
          edges});
      begin = v;
      edges = in_degrees[v];
    } else {
      edges = with;
    }
  }
  if (n > 0) {
    out.push_back(SegmentPlan{
        VertexRange{static_cast<vid_t>(begin), static_cast<vid_t>(n)},
        edges});
  }
  return out;
}

struct SegmentedCsrWriter::Impl {
  std::string path;
  FilePtr file;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::vector<SegmentPlan> plans;
  std::vector<SegmentInfo> manifest;  ///< filled as payloads stream in
  std::size_t next = 0;
  std::uint64_t pos = 0;  ///< current file position (append-only phase)
  bool finished = false;
};

SegmentedCsrWriter::SegmentedCsrWriter(
    const std::string& path, std::uint64_t num_vertices,
    std::uint64_t num_edges, std::vector<SegmentPlan> plans,
    std::span<const std::uint32_t> out_degrees)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.path = path;
  im.num_vertices = num_vertices;
  im.num_edges = num_edges;
  im.plans = std::move(plans);

  // The plan must tile [0, V) contiguously and account for every edge.
  vid_t expect = 0;
  std::uint64_t edge_sum = 0;
  for (const SegmentPlan& p : im.plans) {
    HIPA_CHECK(p.range.begin == expect && p.range.end > p.range.begin,
               "segment plan is not a contiguous tiling of [0, "
                   << num_vertices << ")");
    expect = p.range.end;
    edge_sum += p.edges;
  }
  HIPA_CHECK(expect == num_vertices,
             "segment plan covers [0, " << expect << ") but the graph has "
                                        << num_vertices << " vertices");
  HIPA_CHECK(edge_sum == num_edges,
             "segment plan accounts for " << edge_sum << " of " << num_edges
                                          << " edges");
  HIPA_CHECK(out_degrees.size() == num_vertices,
             "out-degree table has " << out_degrees.size() << " entries for "
                                     << num_vertices << " vertices");

  im.file = open_file(path, "wb");
  const std::uint64_t s = im.plans.size();
  const std::uint64_t sum =
      header_checksum_segmented(kMagicV4, num_vertices, num_edges, s);
  write_exact(im.file.get(), &kMagicV4, sizeof kMagicV4);
  write_exact(im.file.get(), &num_vertices, sizeof num_vertices);
  write_exact(im.file.get(), &num_edges, sizeof num_edges);
  write_exact(im.file.get(), &s, sizeof s);
  write_exact(im.file.get(), &sum, sizeof sum);
  // Manifest placeholder (entries + manifest checksum), back-patched
  // by finish() once payload checksums are known.
  write_zeros(im.file.get(),
              s * kManifestEntryBytes + sizeof(std::uint64_t));
  write_exact(im.file.get(), out_degrees.data(),
              out_degrees.size() * sizeof(std::uint32_t));
  im.pos = kSegHeaderBytes + s * kManifestEntryBytes +
           sizeof(std::uint64_t) + num_vertices * sizeof(std::uint32_t);
  const std::size_t aligned = round_up_page(im.pos);
  write_zeros(im.file.get(), aligned - im.pos);
  im.pos = aligned;
}

SegmentedCsrWriter::~SegmentedCsrWriter() = default;

void SegmentedCsrWriter::write_segment(std::span<const eid_t> local_offsets,
                                       std::span<const vid_t> sources) {
  Impl& im = *impl_;
  HIPA_CHECK(!im.finished && im.next < im.plans.size(),
             "write_segment past the planned segment count");
  const SegmentPlan& plan = im.plans[im.next];
  HIPA_CHECK(local_offsets.size() ==
                 static_cast<std::size_t>(plan.range.size()) + 1,
             "segment " << im.next << ": offsets span has "
                        << local_offsets.size() << " entries, expected "
                        << plan.range.size() + 1);
  HIPA_CHECK(!local_offsets.empty() && local_offsets.front() == 0 &&
                 local_offsets.back() == plan.edges &&
                 sources.size() == plan.edges,
             "segment " << im.next
                        << ": offsets/sources disagree with the plan ("
                        << plan.edges << " edges)");
  SegmentInfo info;
  info.v_begin = plan.range.begin;
  info.v_end = plan.range.end;
  info.file_offset = im.pos;
  info.payload_bytes =
      segment_payload_bytes(plan.range.size(), plan.edges);
  LaneHash64 sum;
  sum.update(local_offsets.data(), local_offsets.size_bytes());
  sum.update(sources.data(), sources.size_bytes());
  info.checksum = sum.digest();
  write_exact(im.file.get(), local_offsets.data(),
              local_offsets.size_bytes());
  write_exact(im.file.get(), sources.data(), sources.size_bytes());
  im.pos += info.payload_bytes;
  const std::size_t aligned = round_up_page(im.pos);
  write_zeros(im.file.get(), aligned - im.pos);
  im.pos = aligned;
  im.manifest.push_back(info);
  ++im.next;
}

void SegmentedCsrWriter::finish() {
  Impl& im = *impl_;
  HIPA_CHECK(!im.finished, "finish() called twice");
  HIPA_CHECK(im.next == im.plans.size(),
             "finish() before all " << im.plans.size()
                                    << " segments were written (got "
                                    << im.next << ")");
  // Serialize the manifest, checksum it, back-patch.
  std::vector<std::uint64_t> words;
  words.reserve(im.manifest.size() * 5);
  for (const SegmentInfo& e : im.manifest) {
    words.push_back(e.v_begin);
    words.push_back(e.v_end);
    words.push_back(e.file_offset);
    words.push_back(e.payload_bytes);
    words.push_back(e.checksum);
  }
  const std::uint64_t msum =
      fnv1a(words.data(), words.size() * sizeof(std::uint64_t));
  HIPA_CHECK(std::fseek(im.file.get(),
                        static_cast<long>(kSegHeaderBytes), SEEK_SET) == 0,
             "cannot seek '" << im.path << "' to back-patch the manifest");
  if (!words.empty()) {
    write_exact(im.file.get(), words.data(),
                words.size() * sizeof(std::uint64_t));
  }
  write_exact(im.file.get(), &msum, sizeof msum);
  HIPA_CHECK(std::fflush(im.file.get()) == 0 &&
                 std::ferror(im.file.get()) == 0,
             "write error finishing '" << im.path << "'");
  im.file.reset();
  im.finished = true;
}

void save_segmented_csr(const std::string& path, const Graph& g,
                        std::size_t target_segment_bytes) {
  const vid_t n = g.num_vertices();
  const CsrGraph& in = g.in;
  std::vector<std::uint64_t> in_degrees(n);
  const auto in_offsets = in.offsets();
  for (vid_t v = 0; v < n; ++v) {
    in_degrees[v] = in_offsets[v + 1] - in_offsets[v];
  }
  std::vector<std::uint32_t> out_degrees(n);
  for (vid_t v = 0; v < n; ++v) {
    out_degrees[v] = g.out.degree(v);
  }
  std::vector<SegmentPlan> plans =
      plan_segments(in_degrees, target_segment_bytes);

  SegmentedCsrWriter w(path, n, g.num_edges(), plans, out_degrees);
  std::vector<eid_t> local_offsets;
  for (const SegmentPlan& p : plans) {
    const vid_t nv = p.range.size();
    local_offsets.resize(static_cast<std::size_t>(nv) + 1);
    const eid_t base = in_offsets[p.range.begin];
    for (vid_t i = 0; i <= nv; ++i) {
      local_offsets[i] = in_offsets[p.range.begin + i] - base;
    }
    w.write_segment(local_offsets,
                    in.targets().subspan(base, p.edges));
  }
  w.finish();
}

struct SegmentedCsr::Impl {
  std::string path;
#if HIPA_IO_HAVE_MMAP
  int fd = -1;
#endif
  std::FILE* file = nullptr;  ///< non-mmap fallback (position-locked)
  std::uint64_t magic = 0;    ///< kMagicV3 or kMagicV4: the payload hash
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::vector<SegmentInfo> segments;
  AlignedBuffer<std::uint32_t> out_degrees;
  std::size_t max_payload = 0;
  std::size_t total_payload = 0;

  mutable std::mutex mu;  ///< mappings + watermark + stdio position
  std::vector<const void*> mapped;          ///< per-segment base or null
  std::vector<std::unique_ptr<char[]>> mapped_copy;  ///< non-mmap maps
  std::size_t mapped_bytes = 0;
  std::size_t peak_mapped = 0;
  mutable std::atomic<std::uint64_t> fetched{0};
  mutable std::atomic<std::uint64_t> read_ns{0};
  mutable std::atomic<std::uint64_t> verify_ns{0};

  /// Checksum a fetched payload of the segment `e` describes with the
  /// file's payload hash, charging the time to verify_ns.
  std::uint64_t verify(const void* payload, const SegmentInfo& e) const {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t sum = payload_checksum(magic, payload, e.payload_bytes);
    verify_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
    return sum;
  }

  ~Impl() {
#if HIPA_IO_HAVE_MMAP
    for (std::size_t s = 0; s < mapped.size(); ++s) {
      if (mapped[s] != nullptr && !mapped_copy[s]) {
        ::munmap(const_cast<void*>(mapped[s]), segments[s].payload_bytes);
      }
    }
    if (fd >= 0) ::close(fd);
#endif
    if (file != nullptr) std::fclose(file);
  }

  /// Positional read that never shares a file offset across threads
  /// (pread on POSIX; a mutex-guarded seek+read otherwise).
  void read_at(std::uint64_t offset, void* dst, std::size_t bytes) const {
#if HIPA_IO_HAVE_MMAP
    auto* p = static_cast<char*>(dst);
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = ::pread(fd, p + done, bytes - done,
                                static_cast<off_t>(offset + done));
      HIPA_CHECK(n > 0, "'" << path << "' truncated or unreadable at byte "
                            << (offset + done));
      done += static_cast<std::size_t>(n);
    }
#else
    std::lock_guard<std::mutex> lock(mu);
    HIPA_CHECK(std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0,
               "cannot seek '" << path << "'");
    HIPA_CHECK(std::fread(dst, 1, bytes, file) == bytes,
               "'" << path << "' truncated or unreadable at byte "
                   << offset);
#endif
  }
};

SegmentedCsr::SegmentedCsr() : impl_(std::make_unique<Impl>()) {}
SegmentedCsr::~SegmentedCsr() = default;
SegmentedCsr::SegmentedCsr(SegmentedCsr&&) noexcept = default;
SegmentedCsr& SegmentedCsr::operator=(SegmentedCsr&&) noexcept = default;

SegmentedCsr SegmentedCsr::open(const std::string& path) {
  SegmentedCsr out;
  Impl& im = *out.impl_;
  im.path = path;

  std::uint64_t file_bytes = 0;
#if HIPA_IO_HAVE_MMAP
  im.fd = ::open(path.c_str(), O_RDONLY);
  HIPA_CHECK(im.fd >= 0, "cannot open '" << path << "' (rb)");
  struct stat st = {};
  HIPA_CHECK(::fstat(im.fd, &st) == 0, "cannot stat '" << path << "'");
  HIPA_CHECK(S_ISREG(st.st_mode), "'" << path << "' is not a regular file");
  file_bytes = static_cast<std::uint64_t>(st.st_size);
#else
  im.file = std::fopen(path.c_str(), "rb");
  HIPA_CHECK(im.file != nullptr, "cannot open '" << path << "' (rb)");
  HIPA_CHECK(std::fseek(im.file, 0, SEEK_END) == 0,
             "cannot seek '" << path << "'");
  const long end = std::ftell(im.file);
  HIPA_CHECK(end >= 0, "cannot size '" << path << "'");
  file_bytes = static_cast<std::uint64_t>(end);
#endif

  HIPA_CHECK(file_bytes >= 8, "'" << path
                                  << "' is not a segmented HCSR file: only "
                                  << file_bytes << " bytes");
  std::uint64_t head[5] = {};
  im.read_at(0, head, std::min<std::uint64_t>(file_bytes, sizeof head));
  HIPA_CHECK(head[0] != kMagicV1 && head[0] != kMagicV2,
             "'" << path << "' is a plain HCSR v"
                 << (head[0] == kMagicV1 ? 1 : 2)
                 << " file, not the segmented v3/v4 container — load it "
                    "with load_csr, or re-shard it with hipa-convert / "
                    "save_segmented_csr for out-of-core runs");
  HIPA_CHECK(head[0] == kMagicV3 || head[0] == kMagicV4,
             "'" << path << "' is not a segmented HCSR v3/v4 file (magic 0x"
                 << std::hex << head[0] << std::dec
                 << ") — refusing to parse a foreign format");
  im.magic = head[0];
  const int version = im.magic == kMagicV3 ? 3 : 4;
  HIPA_CHECK(file_bytes >= kSegHeaderBytes,
             "'" << path << "' truncated inside the v" << version
                 << " header (" << file_bytes << " of " << kSegHeaderBytes
                 << " bytes)");
  im.num_vertices = head[1];
  im.num_edges = head[2];
  const std::uint64_t num_segments = head[3];
  const std::uint64_t want = header_checksum_segmented(
      im.magic, im.num_vertices, im.num_edges, num_segments);
  HIPA_CHECK(head[4] == want,
             "'" << path << "' v" << version
                 << " header checksum mismatch (file 0x"
                 << std::hex << head[4] << ", computed 0x" << want
                 << std::dec << ") — corrupted or foreign file");
  HIPA_CHECK(im.num_vertices < kInvalidVid,
             "'" << path << "' vertex count " << im.num_vertices
                 << " overflows vid_t — corrupted header");
  HIPA_CHECK(num_segments <= im.num_vertices || num_segments == 0,
             "'" << path << "' claims " << num_segments << " segments for "
                 << im.num_vertices << " vertices — corrupted header");

  const std::uint64_t manifest_bytes =
      num_segments * kManifestEntryBytes + sizeof(std::uint64_t);
  const std::uint64_t degrees_off = kSegHeaderBytes + manifest_bytes;
  const std::uint64_t degrees_bytes =
      im.num_vertices * sizeof(std::uint32_t);
  HIPA_CHECK(file_bytes >= degrees_off + degrees_bytes,
             "'" << path << "' truncated inside the manifest/degree "
                    "tables (" << file_bytes << " bytes on disk, header "
                    "implies at least " << (degrees_off + degrees_bytes)
                 << ")");

  std::vector<std::uint64_t> words(num_segments * 5 + 1);
  im.read_at(kSegHeaderBytes, words.data(), manifest_bytes);
  const std::uint64_t msum =
      fnv1a(words.data(), num_segments * kManifestEntryBytes);
  HIPA_CHECK(words.back() == msum,
             "'" << path << "' manifest checksum mismatch (file 0x"
                 << std::hex << words.back() << ", computed 0x" << msum
                 << std::dec << ") — corrupted manifest");

  im.segments.resize(num_segments);
  vid_t expect = 0;
  std::uint64_t edge_sum = 0;
  for (std::uint64_t s = 0; s < num_segments; ++s) {
    SegmentInfo& e = im.segments[s];
    e.v_begin = static_cast<vid_t>(words[s * 5 + 0]);
    e.v_end = static_cast<vid_t>(words[s * 5 + 1]);
    e.file_offset = words[s * 5 + 2];
    e.payload_bytes = words[s * 5 + 3];
    e.checksum = words[s * 5 + 4];
    HIPA_CHECK(e.v_begin == expect && e.v_end > e.v_begin &&
                   e.v_end <= im.num_vertices,
               "'" << path << "' segment " << s
                   << " range is not a contiguous tiling — corrupted "
                      "manifest");
    expect = e.v_end;
    const std::uint64_t header_part =
        (static_cast<std::uint64_t>(e.num_vertices()) + 1) * sizeof(eid_t);
    HIPA_CHECK(e.payload_bytes >= header_part &&
                   (e.payload_bytes - header_part) % sizeof(vid_t) == 0,
               "'" << path << "' segment " << s
                   << " payload size is inconsistent with its vertex "
                      "range — corrupted manifest");
    edge_sum += (e.payload_bytes - header_part) / sizeof(vid_t);
    HIPA_CHECK(e.file_offset % kPageSize == 0,
               "'" << path << "' segment " << s
                   << " payload is not page-aligned — corrupted manifest");
    HIPA_CHECK(e.file_offset + e.payload_bytes <= file_bytes,
               "'" << path << "' truncated inside segment " << s
                   << " payload (needs bytes [" << e.file_offset << ", "
                   << (e.file_offset + e.payload_bytes) << ") of "
                   << file_bytes << " on disk)");
    im.max_payload = std::max<std::size_t>(im.max_payload, e.payload_bytes);
    im.total_payload += e.payload_bytes;
  }
  HIPA_CHECK(expect == im.num_vertices,
             "'" << path << "' segments cover [0, " << expect
                 << ") but the header claims " << im.num_vertices
                 << " vertices — corrupted manifest");
  HIPA_CHECK(edge_sum == im.num_edges,
             "'" << path << "' segment payloads hold " << edge_sum
                 << " edges but the header claims " << im.num_edges
                 << " — corrupted manifest");

  im.out_degrees = AlignedBuffer<std::uint32_t>(im.num_vertices);
  if (im.num_vertices > 0) {
    im.read_at(degrees_off, im.out_degrees.data(), degrees_bytes);
  }
  std::uint64_t deg_sum = 0;
  for (std::size_t v = 0; v < im.out_degrees.size(); ++v) {
    deg_sum += im.out_degrees[v];
  }
  HIPA_CHECK(deg_sum == im.num_edges,
             "'" << path << "' out-degree table sums to " << deg_sum
                 << " but the header claims " << im.num_edges
                 << " edges — corrupted degree table");

  im.mapped.assign(num_segments, nullptr);
  im.mapped_copy.resize(num_segments);
  return out;
}

vid_t SegmentedCsr::num_vertices() const {
  return static_cast<vid_t>(impl_->num_vertices);
}
eid_t SegmentedCsr::num_edges() const { return impl_->num_edges; }
unsigned SegmentedCsr::num_segments() const {
  return static_cast<unsigned>(impl_->segments.size());
}
const SegmentInfo& SegmentedCsr::segment(unsigned s) const {
  HIPA_CHECK(s < impl_->segments.size(),
             "segment index " << s << " out of range");
  return impl_->segments[s];
}
std::span<const std::uint32_t> SegmentedCsr::out_degrees() const {
  return impl_->out_degrees.span();
}
std::size_t SegmentedCsr::max_payload_bytes() const {
  return impl_->max_payload;
}
std::size_t SegmentedCsr::total_payload_bytes() const {
  return impl_->total_payload;
}

void SegmentedCsr::read_segment(unsigned s, void* dst) const {
  const SegmentInfo& e = segment(s);
  const auto t0 = std::chrono::steady_clock::now();
  impl_->read_at(e.file_offset, dst, e.payload_bytes);
  impl_->read_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  const std::uint64_t sum = impl_->verify(dst, e);
  HIPA_CHECK(sum == e.checksum,
             "'" << impl_->path << "' segment " << s
                 << " checksum mismatch (file manifest 0x" << std::hex
                 << e.checksum << ", payload 0x" << sum << std::dec
                 << ") — corrupted segment");
  impl_->fetched.fetch_add(e.payload_bytes, std::memory_order_relaxed);
}

SegmentedCsr::SegmentView SegmentedCsr::view(unsigned s,
                                             const void* payload) const {
  const SegmentInfo& e = segment(s);
  SegmentView v;
  v.range = VertexRange{e.v_begin, e.v_end};
  const auto* offsets = static_cast<const eid_t*>(payload);
  const std::size_t nv = e.num_vertices();
  v.offsets = std::span<const eid_t>(offsets, nv + 1);
  const auto* sources = reinterpret_cast<const vid_t*>(offsets + nv + 1);
  v.sources = std::span<const vid_t>(sources, offsets[nv]);
  return v;
}

const void* SegmentedCsr::map_segment(unsigned s) {
  const SegmentInfo& e = segment(s);
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.mapped[s] != nullptr) return im.mapped[s];
  const void* base = nullptr;
  const auto t0 = std::chrono::steady_clock::now();
#if HIPA_IO_HAVE_MMAP
  void* map = ::mmap(nullptr, e.payload_bytes, PROT_READ, MAP_PRIVATE,
                     im.fd, static_cast<off_t>(e.file_offset));
  if (map != MAP_FAILED) {
    (void)::madvise(map, e.payload_bytes, MADV_WILLNEED);
    base = map;
  }
#endif
  if (base == nullptr) {
    // mmap refused (or unavailable): a private copy keeps the API
    // functional; accounting treats it exactly like a mapping.
    auto copy = std::make_unique<char[]>(e.payload_bytes);
    im.read_at(e.file_offset, copy.get(), e.payload_bytes);
    base = copy.get();
    im.mapped_copy[s] = std::move(copy);
  }
  im.read_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  const std::uint64_t sum = im.verify(base, e);
  if (sum != e.checksum) {
#if HIPA_IO_HAVE_MMAP
    if (!im.mapped_copy[s]) {
      ::munmap(const_cast<void*>(base), e.payload_bytes);
    }
#endif
    im.mapped_copy[s].reset();
    HIPA_CHECK(false, "'" << im.path << "' segment " << s
                          << " checksum mismatch (file manifest 0x"
                          << std::hex << e.checksum << ", payload 0x" << sum
                          << std::dec << ") — corrupted segment");
  }
  im.mapped[s] = base;
  im.mapped_bytes += e.payload_bytes;
  im.peak_mapped = std::max(im.peak_mapped, im.mapped_bytes);
  im.fetched.fetch_add(e.payload_bytes, std::memory_order_relaxed);
  return base;
}

void SegmentedCsr::unmap_segment(unsigned s) {
  const SegmentInfo& e = segment(s);
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.mapped[s] == nullptr) return;
#if HIPA_IO_HAVE_MMAP
  if (!im.mapped_copy[s]) {
    ::munmap(const_cast<void*>(im.mapped[s]), e.payload_bytes);
  }
#endif
  im.mapped_copy[s].reset();
  im.mapped[s] = nullptr;
  im.mapped_bytes -= e.payload_bytes;
}

std::size_t SegmentedCsr::mapped_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->mapped_bytes;
}
std::size_t SegmentedCsr::peak_mapped_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->peak_mapped;
}
std::uint64_t SegmentedCsr::bytes_fetched() const {
  return impl_->fetched.load(std::memory_order_relaxed);
}
std::uint64_t SegmentedCsr::read_ns() const {
  return impl_->read_ns.load(std::memory_order_relaxed);
}
std::uint64_t SegmentedCsr::verify_ns() const {
  return impl_->verify_ns.load(std::memory_order_relaxed);
}

}  // namespace hipa::graph
