#include "net/metrics_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "common/logging.hpp"

namespace stab {

namespace {

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; registry names use
// '.' separators and per-origin suffixes like "o3". Map anything else to '_'
// and prefix "stab_" (which also fixes names starting with a digit).
std::string prom_name(std::string_view name) {
  std::string out = "stab_";
  out.reserve(name.size() + 5);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// Label set from a registry's shard dimension (DESIGN.md §9): a sharded
// node's per-shard registries render with {shard="N"} so the per-shard
// series stay separable; an unsharded registry (-1) renders label-free,
// byte-identical to the pre-shard exposition.
std::string shard_labels(const obs::MetricsRegistry& reg) {
  const int s = reg.shard();
  if (s < 0) return {};
  return "shard=\"" + std::to_string(s) + "\"";
}

void render_summary(std::ostream& out, const std::string& name,
                    const obs::Histogram::Snapshot& s,
                    const std::string& labels = {}) {
  // Quantile samples merge the shard label with the quantile label; the
  // _sum/_count samples carry the shard label alone.
  const std::string qpfx = labels.empty() ? "{" : "{" + labels + ",";
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  out << "# TYPE " << name << " summary\n";
  out << name << qpfx << "quantile=\"0.5\"} " << s.p50 << "\n";
  out << name << qpfx << "quantile=\"0.95\"} " << s.p95 << "\n";
  out << name << qpfx << "quantile=\"0.99\"} " << s.p99 << "\n";
  out << name << qpfx << "quantile=\"0.999\"} " << s.p999 << "\n";
  out << name << "_sum" << plain << " " << s.sum << "\n";
  out << name << "_count" << plain << " " << s.count << "\n";
}

void render_registry(std::ostream& out, std::string_view prefix,
                     const obs::MetricsRegistry& reg) {
  const std::string labels = shard_labels(reg);
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  for (const std::string& raw : reg.names()) {
    const std::string name = prom_name(std::string(prefix) + raw);
    if (const obs::Counter* c = reg.find_counter(raw)) {
      out << "# TYPE " << name << " counter\n";
      out << name << plain << " " << c->value() << "\n";
    } else if (const obs::Gauge* g = reg.find_gauge(raw)) {
      out << "# TYPE " << name << " gauge\n";
      out << name << plain << " " << g->value() << "\n";
    } else if (const obs::Histogram* h = reg.find_histogram(raw)) {
      render_summary(out, name, h->snapshot(), labels);
    }
  }
}

bool write_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

MetricsEndpoint::MetricsEndpoint(MetricsEndpointOptions opts)
    : opts_(std::move(opts)) {}

MetricsEndpoint::~MetricsEndpoint() { stop(); }

void MetricsEndpoint::add_registry(std::string prefix,
                                   const obs::MetricsRegistry* reg) {
  std::lock_guard<std::mutex> l(mu_);
  sources_.emplace_back(std::move(prefix), reg);
}

void MetricsEndpoint::add_probe(std::string prefix, obs::LatencyProbe* probe,
                                std::function<TimePoint()> now) {
  std::lock_guard<std::mutex> l(mu_);
  probes_.push_back({std::move(prefix), probe, std::move(now)});
}

void MetricsEndpoint::set_pre_scrape(std::function<void()> hook) {
  std::lock_guard<std::mutex> l(mu_);
  pre_scrape_ = std::move(hook);
}

Status MetricsEndpoint::start() {
  if (listen_fd_ >= 0) return Status::ok();  // already started
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::error("metrics endpoint: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error("metrics endpoint: bad host " + opts_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 8) < 0) {
    ::close(fd);
    return Status::error("metrics endpoint: bind/listen on " + opts_.host +
                         " failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return Status::ok();
}

void MetricsEndpoint::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  // The serve loop polls with a timeout, so a flagged stop is observed
  // within one poll interval; shutdown() additionally unblocks an accept
  // that already started.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsEndpoint::pre_scrape() const {
  std::function<void()> hook;
  std::vector<ProbeSource> probes;
  {
    std::lock_guard<std::mutex> l(mu_);
    hook = pre_scrape_;
    probes = probes_;
  }
  if (hook) hook();
  for (const ProbeSource& p : probes)
    if (p.probe != nullptr && p.now) p.probe->advance_windows(p.now());
}

std::string MetricsEndpoint::render_prometheus() const {
  pre_scrape();
  std::ostringstream out;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [prefix, reg] : sources_) render_registry(out, prefix, *reg);
  for (const ProbeSource& p : probes_) {
    if (p.probe == nullptr) continue;
    render_registry(out, p.prefix, p.probe->registry());
    // Windowed views: the same summary shape under a ".window" suffix, so a
    // dashboard can plot recent percentiles next to since-boot ones.
    for (const std::string& w : p.probe->window_names())
      render_summary(out, prom_name(p.prefix + w + ".window"),
                     p.probe->windowed(w), shard_labels(p.probe->registry()));
  }
  return out.str();
}

std::string MetricsEndpoint::render_jsonl() const {
  pre_scrape();
  std::ostringstream out;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [prefix, reg] : sources_) reg->dump_jsonl(out, prefix);
  for (const ProbeSource& p : probes_) {
    if (p.probe == nullptr) continue;
    p.probe->registry().dump_jsonl(out, p.prefix);
    p.probe->export_windows_jsonl(out);
  }
  return out.str();
}

void MetricsEndpoint::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Scrapes are tiny; blocking I/O with a short timeout keeps this a
    // one-connection-at-a-time server without starving anyone that matters.
    timeval tv{2, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle_client(client);
    ::close(client);
  }
}

void MetricsEndpoint::handle_client(int fd) const {
  // Read until the end of the request head (or a 4 KiB bound — scrape
  // requests have no body worth reading).
  std::string req;
  char buf[1024];
  while (req.size() < 4096 && req.find("\r\n\r\n") == std::string::npos &&
         req.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
    if (req.find('\n') != std::string::npos) break;  // request line is enough
  }
  const size_t eol = req.find_first_of("\r\n");
  const std::string line = req.substr(0, eol == std::string::npos ? req.size()
                                                                  : eol);
  std::string body, ctype = "text/plain; charset=utf-8", status = "200 OK";
  if (line.rfind("GET /metrics", 0) == 0) {
    body = render_prometheus();
    ctype = "text/plain; version=0.0.4; charset=utf-8";
  } else if (line.rfind("GET /jsonl", 0) == 0) {
    body = render_jsonl();
    ctype = "application/jsonl";
  } else {
    status = "404 Not Found";
    body = "not found: try /metrics or /jsonl\n";
  }
  std::ostringstream head;
  head << "HTTP/1.0 " << status << "\r\nContent-Type: " << ctype
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n";
  const std::string h = head.str();
  if (write_all(fd, h.data(), h.size())) write_all(fd, body.data(), body.size());
}

}  // namespace stab
