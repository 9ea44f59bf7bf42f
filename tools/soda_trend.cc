// soda_trend: summarize every BENCH_*.jsonl in a directory into one
// trend report — paper-table stream ranges, chaos sweep pass/fail, the
// scaling matrix and overload goodput from BENCH_scale.jsonl, and fleet
// runs.
//
// Usage:
//   soda_trend [dir]          ingest BENCH_*.jsonl under dir (default .)
//   soda_trend --files f...   ingest exactly the listed files
//   soda_trend --diff OLD NEW compare two snapshot directories
//                             (before/after a change) and flag regressions
//
// Exit status is 1 when any gate of bench::trend_gate_failures fails,
// each named on stderr: a chaos sweep recorded failures, a scale row
// recorded an invariant violation, the 64-node single-server contention
// row starved a client or left an op without exactly one terminal state
// (ops_done + timedout != ops_expected), the single-segment 128-node
// anycast pool sweep lost its headline (8-server pool goodput below 4x
// the 1-server pool), or a fleet run (BENCH_fleet.jsonl) recorded
// violations / wedged workers / a real-vs-sim twin mismatch. --diff exits
// 1 when any [WORSE] line is printed; goodput regressions are caught
// there, against the committed baseline.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/trend.h"

namespace {

int run_diff(const char* old_dir, const char* new_dir) {
  using namespace soda::bench;
  const auto old_paths = find_bench_files(old_dir);
  const auto new_paths = find_bench_files(new_dir);
  if (old_paths.empty() || new_paths.empty()) {
    std::fprintf(stderr, "soda_trend: no BENCH_*.jsonl files under %s\n",
                 old_paths.empty() ? old_dir : new_dir);
    return 2;
  }
  const TrendReport before = build_trend_report(old_paths);
  const TrendReport after = build_trend_report(new_paths);
  const std::string diff = format_trend_diff(before, after);
  std::fputs(diff.c_str(), stdout);
  return diff.find("[WORSE]") != std::string::npos ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soda::bench;

  if (argc > 1 && std::strcmp(argv[1], "--diff") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: soda_trend --diff OLD_DIR NEW_DIR\n");
      return 2;
    }
    return run_diff(argv[2], argv[3]);
  }

  std::vector<std::string> paths;
  if (argc > 1 && std::strcmp(argv[1], "--files") == 0) {
    for (int i = 2; i < argc; ++i) paths.emplace_back(argv[i]);
  } else {
    paths = find_bench_files(argc > 1 ? argv[1] : ".");
  }
  if (paths.empty()) {
    std::fprintf(stderr, "soda_trend: no BENCH_*.jsonl files found\n");
    return 2;
  }

  const TrendReport report = build_trend_report(paths);
  std::fputs(format_trend_report(report).c_str(), stdout);

  const std::vector<std::string> failures = trend_gate_failures(report);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "soda_trend: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
