// Bench gate CLI: evaluates the rule table of bench_gate.hpp on one
// bench JSON document, optionally against a committed baseline.
//
//   bench_gate <current.json> [baseline.json]
//
// Exit 0: every hard row holds (advisory warnings allowed). Exit 1: a
// hard violation. Exit 2: usage error, or a file that cannot be read or
// parsed. Each finding prints as `gate FAIL|warn <pointer>: <what>`.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_gate.hpp"

namespace {

hipa::json::ValuePtr load(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::string err = "cannot open";
  hipa::json::ValuePtr v =
      in ? hipa::json::parse(std::move(text).str(), &err) : nullptr;
  if (v == nullptr) std::fprintf(stderr, "%s: %s\n", path, err.c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: %s <current.json> [baseline.json]\n",
                 argv[0]);
    return 2;
  }
  const hipa::json::ValuePtr cur = load(argv[1]);
  const hipa::json::ValuePtr base = argc == 3 ? load(argv[2]) : nullptr;
  if (cur == nullptr || (argc == 3 && base == nullptr)) return 2;

  const hipa::gate::Report rep = hipa::gate::evaluate(*cur, base.get());
  for (const hipa::gate::Finding& f : rep.findings) {
    std::fprintf(stderr, "gate %s %s: %s\n", f.hard ? "FAIL" : "warn",
                 f.pointer.c_str(), f.what.c_str());
  }
  const int hard = rep.count(true);
  const int warnings = rep.count(false);
  if (hard > 0) {
    std::fprintf(stderr, "%d hard violation(s), %d warning(s) in %s\n", hard,
                 warnings, argv[1]);
    return 1;
  }
  std::printf("gate OK: %s (%d warning(s))\n", argv[1], warnings);
  return 0;
}
