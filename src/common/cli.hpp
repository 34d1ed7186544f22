// Minimal command-line parsing helpers shared by the bench binaries
// (bench/bench_util.hpp's Flags) and the offline tools
// (tools/hipa_convert.cpp). Deliberately tiny and dependency-free:
// prefix-matched `--name=value` flags, comma-separated name lists
// resolved through a caller-supplied vocabulary, and strict integer
// parsing that aborts on junk — a silently mis-parsed flag would
// corrupt a reproduction run, so every failure here is loud and fatal
// (exit code 2, the conventional usage-error status).
//
// This header knows nothing about methods or kernels; callers pass
// their own `from_name` lookup (e.g. algo::method_from_name) so the
// vocabulary lives next to the enum it names.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace hipa::cli {

/// If `arg` starts with `prefix` (conventionally "--name="), return
/// the text after the prefix; nullptr otherwise. Usable directly in a
/// condition: `if (const char* v = flag_value(a, "--out=")) ...`.
[[nodiscard]] inline const char* flag_value(const char* arg,
                                            const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

/// Exact-match boolean flag ("--quick", "--help").
[[nodiscard]] inline bool flag_is(const char* arg, const char* name) {
  return std::strcmp(arg, name) == 0;
}

/// Split "a,b,c" into tokens; empty tokens (",,b" or a trailing
/// comma) are dropped.
[[nodiscard]] inline std::vector<std::string> split_csv(const char* list) {
  std::vector<std::string> out;
  const std::string s(list);
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(std::move(tok));
    pos = comma + 1;
  }
  return out;
}

/// Parse a comma-separated list of named values through `from_name`
/// (any callable taking std::string and returning std::optional<T>).
/// Unknown names abort with the vocabulary: `what` names the flag
/// domain for the message ("method"), `vocab` lists valid spellings.
template <class T, class FromName>
[[nodiscard]] std::vector<T> parse_name_list(const char* list,
                                             FromName&& from_name,
                                             const char* what,
                                             const char* vocab) {
  std::vector<T> out;
  for (const std::string& tok : split_csv(list)) {
    const auto v = from_name(tok);
    if (!v.has_value()) {
      std::fprintf(stderr, "unknown %s '%s' (try %s)\n", what, tok.c_str(),
                   vocab);
      std::exit(2);
    }
    out.push_back(*v);
  }
  return out;
}

/// Strict unsigned parse; `flag` names the flag in the abort message.
/// Zero is allowed (benches use 0 as "per-bench default").
[[nodiscard]] inline unsigned long long parse_u64(const char* flag,
                                                  const char* arg) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "%s needs an unsigned integer, got '%s'\n", flag,
                 arg);
    std::exit(2);
  }
  return v;
}

/// parse_u64 that additionally rejects zero (sizes, counts).
[[nodiscard]] inline unsigned long long parse_positive(const char* flag,
                                                       const char* arg) {
  const unsigned long long v = parse_u64(flag, arg);
  if (v == 0) {
    std::fprintf(stderr, "%s needs a positive integer, got '%s'\n", flag,
                 arg);
    std::exit(2);
  }
  return v;
}

}  // namespace hipa::cli
