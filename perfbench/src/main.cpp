// perfbench_e2e: runs one workload of the end-to-end benchmark and prints
// its result as one JSON line (run.py wraps it; see README.md).
//
//   perfbench_e2e --workload tcp_small --seed 1 --seconds 10 --trace 0
//                 [--trace-out spans.bin]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using perfbench::Result;
using perfbench::RunConfig;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

void print_result(const RunConfig& cfg, const Result& r) {
  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                json_string(r.metrics[i].name).c_str(), r.metrics[i].value,
                json_string(r.metrics[i].unit).c_str());
  std::printf("}, \"problems\": [");
  for (size_t i = 0; i < r.problems.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_string(r.problems[i]).c_str());
  std::printf("], \"info\": {\"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"compiler\": %s, \"build_type\": %s, \"stab_obs\": \"on\"}}\n",
              json_string(cfg.workload).c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload tcp_small|tcp_bulk|sim_fleet|"
               "sim_wan_lossy --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
  return 2;
#endif
  // A fixed mmap threshold stops glibc from raising it after each large
  // free, which otherwise lets freed buffers pile up in the heap round
  // after round and makes peak_rss_mib depend on the run's history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") cfg.workload = val;
    else if (key == "--seed") cfg.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::atof(val);
    else if (key == "--trace") cfg.trace = std::strcmp(val, "0") != 0;
    else if (key == "--trace-out") cfg.trace_path = val;
    else return usage();
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return usage();
  if (cfg.trace_path.empty())
    cfg.trace_path = "perfbench-" + cfg.workload + ".spans";

  try {
    Result r;
    if (cfg.workload == "tcp_small") r = perfbench::run_tcp_small(cfg);
    else if (cfg.workload == "tcp_bulk") r = perfbench::run_tcp_bulk(cfg);
    else if (cfg.workload == "sim_fleet") r = perfbench::run_sim_fleet(cfg);
    else if (cfg.workload == "sim_wan_lossy") r = perfbench::run_sim_wan_lossy(cfg);
    else return usage();
    if (!cfg.trace)
      r.metric("failed_frac",
               r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0,
               "frac");
    for (const std::string& p : r.problems)
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    print_result(cfg, r);
    return r.failed == 0 && r.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
