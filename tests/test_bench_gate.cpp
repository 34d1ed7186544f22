// Mutation test of the bench gate's rule table (bench/bench_gate.hpp).
// It walks the gate's own table, so no row can escape coverage:
//   * every row matches at least one field of its tag's smoke document;
//   * corrupting one matched field (wrong type, out of range, flipped
//     bool, a drift twice past the band, a relation in swapped order)
//     makes a hard row fail naming that field's pointer, and makes an
//     advisory row warn at it, never fail.
// A row whose precondition the document does not meet is corrupted
// together with its precondition. Arrays this host leaves empty (PMU
// events, NUMA page-audit buffers) get one plausible entry first.
//
//   test_bench_gate <dir with BENCH_*_smoke.json> <BENCH_baseline.json>
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_gate.hpp"

namespace hipa::gate {
namespace {

std::string g_dir;
std::string g_baseline;

json::ValuePtr load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return json::parse(std::move(text).str());
}

void fill_empty_arrays(Value& v) {
  for (auto& [key, c] : v.object) {
    if (c->is(Value::Type::kArray) && c->array.empty()) {
      if (key == "events") c->array.push_back(json::parse("\"cycles\""));
      if (key == "buffers") {
        c->array.push_back(json::parse(
            R"({"name": "ranks", "intended_node": 0, "pages_total": 4,
                "pages_on_node": 3, "pages_elsewhere": 1,
                "pages_unmapped": 0, "fraction_on_node": 0.75})"));
      }
    }
    fill_empty_arrays(*c);
  }
  for (const json::ValuePtr& c : v.array) fill_empty_arrays(*c);
}

struct Doc {
  std::string file;
  json::ValuePtr cur;
  json::ValuePtr base;  // null: gated without a baseline
};

const std::vector<Doc>& docs() {
  static const std::vector<Doc> all = [] {
    const json::ValuePtr base = load(g_baseline);
    std::vector<Doc> d = {{"BENCH_hotpath_smoke.json", nullptr, base},
                          {"BENCH_serve_smoke.json", nullptr, base},
                          {"BENCH_dist_smoke.json", nullptr, base},
                          {"BENCH_table3_smoke.json", nullptr, nullptr}};
    for (Doc& doc : d) {
      doc.cur = load(g_dir + "/" + doc.file);
      if (doc.cur != nullptr) fill_empty_arrays(*doc.cur);
    }
    return d;
  }();
  return all;
}

/// Edits values of a document in place and restores them on scope exit.
class Patch {
 public:
  Patch() = default;
  Patch(const Patch&) = delete;
  Patch& operator=(const Patch&) = delete;
  ~Patch() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      *it->first = it->second;
    }
  }
  Value& edit(const Value* v) {
    auto* m = const_cast<Value*>(v);  // the test owns every document
    saved_.emplace_back(m, *m);
    return *m;
  }

 private:
  std::vector<std::pair<Value*, Value>> saved_;
};

/// Applies the corruption row `r` must catch at `h`.
void corrupt(const Rule& r, const Hit& h, Patch* p) {
  if (!h.met) {
    std::string_view cond = r.when;
    const bool neg = cond[0] == '!';
    if (neg) cond.remove_prefix(1);
    const Value* pre = h.parent->find(std::string(cond));
    ASSERT_NE(pre, nullptr) << "precondition " << r.when << " absent";
    Value& w = p->edit(pre);
    w.boolean = !neg;
    w.number = neg ? 0.0 : 1.0;
  }
  switch (r.check) {
    case Check::kUse:
      return;
    case Check::kType:
      p->edit(h.node).type = r.type == Value::Type::kNumber
                                 ? Value::Type::kString
                                 : Value::Type::kNumber;
      return;
    case Check::kRange:
      p->edit(h.node).number = r.lo - 1.0;
      return;
    case Check::kTrue:
      p->edit(h.node).boolean = false;
      return;
    case Check::kLength: {
      Value& v = p->edit(h.node);
      v.array.push_back(v.array.back());
      return;
    }
    case Check::kNonEmpty:
      p->edit(h.node).array.clear();
      return;
    case Check::kOneOf:
      p->edit(h.node).str = "bogus";
      return;
    case Check::kLe: {  // swap the order: the first addend tops the bound
      const std::string rel = r.arg;
      const Value* lhs = h.node->find(rel.substr(0, rel.find_first_of("+<")));
      const Value* rhs = h.node->find(rel.substr(rel.find("<=") + 2));
      ASSERT_TRUE(lhs != nullptr && rhs != nullptr) << rel;
      const double top = rhs->number;
      p->edit(lhs).number = top + std::fabs(top) + r.lo + 1.0;
      return;
    }
    case Check::kDrift: {
      Value& v = p->edit(h.node);
      if (v.is(Value::Type::kBool)) {
        v.boolean = !v.boolean;
      } else {
        const double b = h.base->number;
        v.number = b + std::fmax(std::fabs(b), r.hi) * (2.0 * r.lo + 1.0);
      }
      return;
    }
  }
}

std::string describe(std::size_t i) {
  return "row " + std::to_string(i) + " (" + kRules[i].tag + " " +
         kRules[i].path + ")";
}

TEST(BenchGate, SmokeDocumentsPass) {
  for (const Doc& doc : docs()) {
    ASSERT_NE(doc.cur, nullptr) << doc.file << " missing or unparsable";
    const Report rep = evaluate(*doc.cur, doc.base.get());
    for (const Finding& f : rep.findings) {
      EXPECT_FALSE(f.hard) << doc.file << " " << f.pointer << ": " << f.what;
    }
  }
}

TEST(BenchGate, EveryRowMatchesAField) {
  std::vector<int> hits(std::size(kRules), 0);
  for (const Doc& doc : docs()) {
    ASSERT_NE(doc.cur, nullptr) << doc.file;
    for (const Hit& h : evaluate(*doc.cur, doc.base.get()).hits) {
      ++hits[h.rule];
    }
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_GT(hits[i], 0) << describe(i) << " matches no field";
  }
}

TEST(BenchGate, HardRowsTripAndAdvisoryRowsOnlyWarn) {
  int mutated = 0;
  for (const Doc& doc : docs()) {
    ASSERT_NE(doc.cur, nullptr) << doc.file;
    const Report clean = evaluate(*doc.cur, doc.base.get());
    for (const Hit& h : clean.hits) {
      const Rule& r = kRules[h.rule];
      if (r.check == Check::kUse) continue;
      Patch patch;
      corrupt(r, h, &patch);
      bool failed = false;
      bool warned = false;
      for (const Finding& f : evaluate(*doc.cur, doc.base.get()).findings) {
        if (f.rule != h.rule || f.pointer != h.pointer) continue;
        (f.hard ? failed : warned) = true;
      }
      ++mutated;
      if (r.advisory) {
        EXPECT_TRUE(warned && !failed)
            << describe(h.rule) << " at " << h.pointer << " must only warn";
      } else {
        EXPECT_TRUE(failed)
            << describe(h.rule) << " did not fail at " << h.pointer;
      }
    }
  }
  EXPECT_GT(mutated, 0);
}

TEST(BenchGate, TagAndBaselineErrorsAreHard) {
  const json::ValuePtr unknown = json::parse(R"({"bench": "nope"})");
  const Report a = evaluate(*unknown);
  ASSERT_EQ(a.findings.size(), 1u);
  EXPECT_EQ(a.findings[0].pointer, "/bench");
  EXPECT_TRUE(a.findings[0].hard);

  const json::ValuePtr serve = json::parse(R"({"bench": "serve"})");
  const json::ValuePtr bare = json::parse(R"({"bench": "hotpath"})");
  const Report b = evaluate(*serve, bare.get());
  ASSERT_FALSE(b.findings.empty());
  EXPECT_EQ(b.findings[0].what, "baseline has no 'serve' section");
  EXPECT_GT(b.count(true), 0);
}

}  // namespace
}  // namespace hipa::gate

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: %s <dir with BENCH_*_smoke.json> "
                 "<BENCH_baseline.json>\n",
                 argv[0]);
    return 2;
  }
  hipa::gate::g_dir = argv[1];
  hipa::gate::g_baseline = argv[2];
  return RUN_ALL_TESTS();
}
