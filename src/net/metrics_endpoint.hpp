// Live metrics scrape endpoint (docs/OBSERVABILITY.md §7).
//
// A MetricsEndpoint is a deliberately tiny HTTP/1.0 server — one listening
// socket, one serving thread, one connection at a time — that renders the
// registered metric sources on demand:
//
//   GET /metrics   Prometheus text exposition (format 0.0.4). Counters and
//                  gauges map directly; histograms render as summaries with
//                  quantile labels 0.5/0.95/0.99/0.999 plus _count/_sum.
//                  Metric names are the registry names with '.' (and any
//                  other non-[a-zA-Z0-9_:]) mapped to '_', prefixed "stab_".
//   GET /jsonl     The same dump_jsonl lines tests and benches consume,
//                  plus one windowed_histogram line per probe window.
//
// Scrapes are rare and tiny, so serializing them on one thread costs
// nothing and keeps the code a page long; the metric reads themselves are
// the registries' relaxed atomic loads, so a scrape never blocks the data
// path. A pre-scrape hook lets the owner fold batched state (the wire
// codec's thread-local accumulators, a probe's stale window epochs) right
// before rendering, making a scrape a quiesce point.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "obs/latency_probe.hpp"
#include "obs/metrics.hpp"

namespace stab {

struct MetricsEndpointOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned; read the bound port back via port().
  uint16_t port = 0;
};

class MetricsEndpoint {
 public:
  explicit MetricsEndpoint(MetricsEndpointOptions opts = {});
  ~MetricsEndpoint();

  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  /// Expose `reg`'s metrics with `prefix` prepended to every name (per-node
  /// namespacing, same convention as MetricsRegistry::dump_jsonl). The
  /// registry must outlive the endpoint. Callable before or after start().
  void add_registry(std::string prefix, const obs::MetricsRegistry* reg);

  /// Expose a LatencyProbe: its registry (under `prefix`) plus its windowed
  /// percentile views. `now`, when provided, reads the owning node's Env
  /// clock so a scrape ages out stale window epochs first.
  void add_probe(std::string prefix, obs::LatencyProbe* probe,
                 std::function<TimePoint()> now = {});

  /// Invoked at the top of every scrape, before rendering — the owner's
  /// chance to fold batched counters (e.g. data::flush_wire_counters).
  void set_pre_scrape(std::function<void()> hook);

  /// Bind + listen + spawn the serving thread. Error status (and no thread)
  /// when the address cannot be bound.
  Status start();

  /// Close the socket and join the thread. Idempotent; the dtor calls it.
  void stop();

  /// Bound port (the kernel's pick when options.port was 0); 0 before
  /// start().
  uint16_t port() const { return port_; }

  /// Renderers, exposed for tests and offline dumps; a scrape serves
  /// exactly these bytes.
  std::string render_prometheus() const;
  std::string render_jsonl() const;

 private:
  struct ProbeSource {
    std::string prefix;
    obs::LatencyProbe* probe = nullptr;
    std::function<TimePoint()> now;
  };

  void serve_loop();
  void handle_client(int fd) const;
  void pre_scrape() const;

  const MetricsEndpointOptions opts_;
  mutable std::mutex mu_;  // guards sources_/probes_/pre_scrape_
  std::vector<std::pair<std::string, const obs::MetricsRegistry*>> sources_;
  std::vector<ProbeSource> probes_;
  std::function<void()> pre_scrape_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace stab
