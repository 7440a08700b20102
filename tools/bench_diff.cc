// Perf regression gate: compares a fresh BENCH_RESULTS.json against the
// checked-in bench/BENCH_BASELINE.json.
//
//   mig_bench_diff [--tolerance-pct N] [--tolerance <key>=<pct>]...
//                  [--skip <key>]... [--update-baseline]
//                  <baseline.json> <results.json>
//
// Both files are mig_bench_collect aggregates:
//   { "benches": [ { "binary": "...", "rows": [ {...}, ... ] } ] }
//
// Benches are matched by binary name and rows by index (the benches are
// deterministic, so row order is part of the contract). Within a row:
//  * the key set must match exactly — a bench that gains/loses a metric is a
//    schema change and needs a baseline update;
//  * string/bool values must match exactly;
//  * numeric keys ending in `_ns` are timings and get a tolerance band
//    (default --tolerance-pct) — small cost-model shifts pass, a 2x
//    downtime regression fails;
//  * an explicit --tolerance key=pct entry grants ANY numeric key a band,
//    not just `_ns` timings; the key may contain one `*` wildcard
//    (`*_ns_per_byte_x100` matches every key with that suffix). This is how
//    wall-clock measurements (the micro_primitives hotpath rows) get slack
//    without loosening the deterministic metrics around them;
//  * a --skip key (same `*` wildcard) must still be present in both rows,
//    but its value is not compared — for wall-clock rows measured in a build
//    whose instrumentation (ASan/UBSan) puts them off any useful band;
//  * every other number (page counts, byte totals, parameters) must match
//    exactly — the simulator is deterministic, so any drift there is a
//    behavior change, not noise.
//
// --update-baseline copies the results file over the baseline and exits 0;
// that is the one deliberate way to move the trend line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using mig::obs::Json;
using mig::Result;

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return mig::Error(mig::ErrorCode::kNotFound, "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Options {
  double default_pct = 30.0;
  std::map<std::string, double> per_key_pct;
  std::vector<std::string> skip_patterns;
  bool update_baseline = false;
  std::string baseline_path;
  std::string results_path;
};

// binary name -> rows
using BenchMap = std::map<std::string, const std::vector<Json>*>;

Result<BenchMap> index_benches(const Json& doc, const std::string& which) {
  const Json* benches = doc.get("benches");
  if (benches == nullptr || !benches->is_array())
    return mig::Error(mig::ErrorCode::kInvalidArgument,
                      which + ": no \"benches\" array");
  BenchMap out;
  for (const Json& b : benches->items()) {
    const Json* binary = b.get("binary");
    const Json* rows = b.get("rows");
    if (binary == nullptr || !binary->is_string() || rows == nullptr ||
        !rows->is_array())
      return mig::Error(mig::ErrorCode::kInvalidArgument,
                        which + ": malformed bench entry");
    out[binary->as_string()] = &rows->items();
  }
  return out;
}

class Reporter {
 public:
  void violation(const std::string& where, const std::string& msg) {
    std::fprintf(stderr, "FAIL %s: %s\n", where.c_str(), msg.c_str());
    ++violations_;
  }
  int violations() const { return violations_; }
  int metrics_checked = 0;

 private:
  int violations_ = 0;
};

// --tolerance patterns: exact key, or one `*` matching any run of characters
// (prefix*suffix).
bool pattern_matches(const std::string& pat, const std::string& key) {
  size_t star = pat.find('*');
  if (star == std::string::npos) return pat == key;
  std::string pre = pat.substr(0, star);
  std::string suf = pat.substr(star + 1);
  return key.size() >= pre.size() + suf.size() &&
         key.compare(0, pre.size(), pre) == 0 &&
         key.compare(key.size() - suf.size(), suf.size(), suf) == 0;
}

// An explicit tolerance entry for `key`, if any: exact entries win over
// wildcard ones.
const double* find_tolerance(const Options& opt, const std::string& key) {
  auto it = opt.per_key_pct.find(key);
  if (it != opt.per_key_pct.end()) return &it->second;
  for (const auto& [pat, pct] : opt.per_key_pct) {
    if (pat.find('*') != std::string::npos && pattern_matches(pat, key))
      return &pct;
  }
  return nullptr;
}

std::string num_str(const Json& v) {
  if (v.is_integer()) return std::to_string(v.as_u64());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v.as_double());
  return buf;
}

void compare_value(const Options& opt, const std::string& where,
                   const std::string& key, const Json& base, const Json& cur,
                   Reporter* rep) {
  ++rep->metrics_checked;
  if (base.type() != cur.type() &&
      !(base.is_number() && cur.is_number())) {
    rep->violation(where, key + ": type changed");
    return;
  }
  if (base.is_string()) {
    if (base.as_string() != cur.as_string())
      rep->violation(where, key + ": \"" + base.as_string() + "\" -> \"" +
                                cur.as_string() + "\"");
    return;
  }
  if (base.is_bool()) {
    if (base.as_bool() != cur.as_bool())
      rep->violation(where, key + ": bool flipped");
    return;
  }
  if (!base.is_number()) return;  // null/array/object: benches don't emit these

  double b = base.as_double();
  double c = cur.as_double();
  if (b == c) return;
  // Timings get the default slack; an explicit --tolerance entry grants any
  // numeric key a band (wall-clock rows); everything else in a deterministic
  // simulator is exact by construction.
  const double* explicit_pct = find_tolerance(opt, key);
  bool is_timing = key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0;
  if (explicit_pct == nullptr && !is_timing) {
    rep->violation(where,
                   key + ": " + num_str(base) + " -> " + num_str(cur) +
                       " (non-timing metrics must match exactly)");
    return;
  }
  double pct = explicit_pct != nullptr ? *explicit_pct : opt.default_pct;
  double drift = std::fabs(c - b);
  if (b == 0.0 || drift * 100.0 > pct * b) {
    double rel = b == 0.0 ? 0.0 : 100.0 * drift / b;
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "%s: %s -> %s (%.1f%% drift, tolerance %.1f%%)", key.c_str(),
                  num_str(base).c_str(), num_str(cur).c_str(), rel, pct);
    rep->violation(where, msg);
  }
}

void compare_row(const Options& opt, const std::string& where,
                 const Json& base, const Json& cur, Reporter* rep) {
  if (!base.is_object() || !cur.is_object()) {
    rep->violation(where, "row is not an object");
    return;
  }
  for (const auto& [key, bval] : base.fields()) {
    const Json* cval = cur.get(key);
    if (cval == nullptr) {
      rep->violation(where, key + ": metric disappeared");
      continue;
    }
    bool skipped = false;
    for (const std::string& pat : opt.skip_patterns)
      skipped = skipped || pattern_matches(pat, key);
    if (skipped) continue;
    compare_value(opt, where, key, bval, *cval, rep);
  }
  for (const auto& [key, cval] : cur.fields()) {
    (void)cval;
    if (!base.has(key))
      rep->violation(where, key + ": new metric not in baseline "
                                "(run --update-baseline)");
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance-pct N] [--tolerance <key>=<pct>]...\n"
               "          [--skip <key>]... [--update-baseline]\n"
               "          <baseline.json> <results.json>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--update-baseline") {
      opt.update_baseline = true;
    } else if (arg == "--tolerance-pct") {
      if (++i >= argc) return usage(argv[0]);
      opt.default_pct = std::atof(argv[i]);
    } else if (arg == "--tolerance") {
      if (++i >= argc) return usage(argv[0]);
      std::string kv = argv[i];
      size_t eq = kv.find('=');
      if (eq == std::string::npos) return usage(argv[0]);
      opt.per_key_pct[kv.substr(0, eq)] = std::atof(kv.c_str() + eq + 1);
    } else if (arg == "--skip") {
      if (++i >= argc) return usage(argv[0]);
      opt.skip_patterns.push_back(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() != 2) return usage(argv[0]);
  opt.baseline_path = positional[0];
  opt.results_path = positional[1];

  Result<std::string> results_text = read_file(opt.results_path);
  if (!results_text.ok()) {
    std::fprintf(stderr, "%s\n", results_text.status().to_string().c_str());
    return 2;
  }

  if (opt.update_baseline) {
    std::ofstream out(opt.baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.baseline_path.c_str());
      return 2;
    }
    out << *results_text;
    std::printf("baseline updated: %s <- %s\n", opt.baseline_path.c_str(),
                opt.results_path.c_str());
    return 0;
  }

  Result<std::string> baseline_text = read_file(opt.baseline_path);
  if (!baseline_text.ok()) {
    std::fprintf(stderr,
                 "%s\n(no baseline yet? seed one with --update-baseline)\n",
                 baseline_text.status().to_string().c_str());
    return 2;
  }

  Result<Json> baseline = Json::parse(*baseline_text);
  Result<Json> results = Json::parse(*results_text);
  if (!baseline.ok() || !results.ok()) {
    std::fprintf(stderr, "parse failure: %s\n",
                 (!baseline.ok() ? baseline : results).status().to_string().c_str());
    return 2;
  }
  Result<BenchMap> base_map = index_benches(*baseline, "baseline");
  Result<BenchMap> cur_map = index_benches(*results, "results");
  if (!base_map.ok() || !cur_map.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!base_map.ok() ? base_map.status() : cur_map.status())
                     .to_string()
                     .c_str());
    return 2;
  }

  Reporter rep;
  for (const auto& [binary, base_rows] : *base_map) {
    auto it = cur_map->find(binary);
    if (it == cur_map->end()) {
      rep.violation(binary, "bench missing from results");
      continue;
    }
    const std::vector<Json>& cur_rows = *it->second;
    if (base_rows->size() != cur_rows.size()) {
      rep.violation(binary, "row count " + std::to_string(base_rows->size()) +
                                " -> " + std::to_string(cur_rows.size()));
      continue;
    }
    for (size_t r = 0; r < cur_rows.size(); ++r) {
      const Json* bench_name = (*base_rows)[r].get("bench");
      std::string where =
          binary + "[" + std::to_string(r) + "]" +
          (bench_name != nullptr && bench_name->is_string()
               ? " (" + bench_name->as_string() + ")"
               : "");
      compare_row(opt, where, (*base_rows)[r], cur_rows[r], &rep);
    }
  }
  for (const auto& [binary, rows] : *cur_map) {
    (void)rows;
    if (base_map->find(binary) == base_map->end())
      rep.violation(binary,
                    "new bench not in baseline (run --update-baseline)");
  }

  if (rep.violations() != 0) {
    std::fprintf(stderr, "bench regression gate: %d violation(s)\n",
                 rep.violations());
    return 1;
  }
  std::printf(
      "bench regression gate: OK — %zu bench(es), %d metric(s) within "
      "tolerance (timings ±%.0f%%, everything else exact)\n",
      base_map->size(), rep.metrics_checked, opt.default_pct);
  return 0;
}
