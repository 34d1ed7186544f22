// hipa-convert: offline sharder from text edge lists to the segmented
// HCSR v4 container (graph/convert.hpp). Runs in bounded memory —
// O(V + largest segment) — so graphs whose CSR exceeds RAM can be
// prepared on the same machine that will stream them.
//
//   hipa-convert <edges.txt> <out.hcsr4> [--segment-bytes N]
//                                        [--chunk-edges N]

#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "graph/convert.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <edge-list> <out.hcsr4> [options]\n"
      "\n"
      "Shard a whitespace edge list ('src dst' per line, '#'/'%%'\n"
      "comments) into a segmented HCSR v4 file for out-of-core\n"
      "PageRank. Memory use is bounded by the vertex count plus one\n"
      "segment, never the full edge set.\n"
      "\n"
      "options:\n"
      "  --segment-bytes N   target payload bytes per segment\n"
      "                      (default 67108864 = 64 MiB)\n"
      "  --chunk-edges N     edges parsed per streaming chunk\n"
      "                      (default 1048576)\n"
      "(both options also accept the --flag=N spelling)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using hipa::cli::flag_is;
  using hipa::cli::flag_value;
  using hipa::cli::parse_positive;
  std::string in_path;
  std::string out_path;
  hipa::graph::ConvertOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (flag_is(a, "--help") || flag_is(a, "-h")) {
      usage(argv[0]);
      return 0;
    }
    if (flag_is(a, "--segment-bytes") && i + 1 < argc) {
      opt.target_segment_bytes =
          static_cast<std::size_t>(parse_positive(a, argv[++i]));
    } else if (const char* v = flag_value(a, "--segment-bytes=")) {
      opt.target_segment_bytes =
          static_cast<std::size_t>(parse_positive("--segment-bytes", v));
    } else if (flag_is(a, "--chunk-edges") && i + 1 < argc) {
      opt.chunk_edges = static_cast<std::size_t>(parse_positive(a, argv[++i]));
    } else if (const char* edges = flag_value(a, "--chunk-edges=")) {
      opt.chunk_edges =
          static_cast<std::size_t>(parse_positive("--chunk-edges", edges));
    } else if (a[0] == '-') {
      std::fprintf(stderr, "hipa-convert: unknown option '%s'\n", a);
      usage(argv[0]);
      return 2;
    } else if (in_path.empty()) {
      in_path = a;
    } else if (out_path.empty()) {
      out_path = a;
    } else {
      std::fprintf(stderr, "hipa-convert: unexpected argument '%s'\n", a);
      usage(argv[0]);
      return 2;
    }
  }
  if (in_path.empty() || out_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    const hipa::graph::ConvertStats stats =
        hipa::graph::convert_edge_list_to_segmented(in_path, out_path, opt);
    std::printf(
        "hipa-convert: %s -> %s\n"
        "  vertices:             %u\n"
        "  edges:                %llu\n"
        "  segments:             %u\n"
        "  largest payload:      %zu bytes\n",
        in_path.c_str(), out_path.c_str(), stats.num_vertices,
        static_cast<unsigned long long>(stats.num_edges), stats.num_segments,
        stats.max_segment_payload_bytes);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hipa-convert: %s\n", e.what());
    return 1;
  }
}
