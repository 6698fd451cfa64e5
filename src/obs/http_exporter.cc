#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

namespace prompt {

namespace {

/// Prometheus label rendering: `name{k="v",...}` with quoted, escaped
/// values — distinct from MetricSample::FullName's unquoted `k=v` identity.
std::string PrometheusSeries(const std::string& name,
                             const MetricLabels& labels,
                             const MetricLabels& extra = {}) {
  std::string out = name;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  bool first = true;
  auto append = [&out, &first](const MetricLabels& ls) {
    for (const auto& [k, v] : ls) {
      if (!first) out += ',';
      first = false;
      out += k;
      out += "=\"";
      for (char c : v) {
        if (c == '\\' || c == '"') out += '\\';
        if (c == '\n') {
          out += "\\n";
          continue;
        }
        out += c;
      }
      out += '"';
    }
  };
  append(labels);
  append(extra);
  out += '}';
  return out;
}

std::string PrometheusValue(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Value of `key` in an URL query string ("a=1&b=2"), "" when absent. No
/// percent-decoding — tenant ids are plain identifiers.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

/// JSON string escaping for the /tenants.json index.
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string PrometheusExposition(const std::vector<MetricSample>& snapshot) {
  std::string out;
  // The snapshot is sorted by FullName, which does not group label variants
  // of one metric adjacently ('{' sorts above '_'); dedupe TYPE lines by
  // name instead of relying on adjacency.
  std::vector<std::string> typed;
  auto type_line = [&out, &typed](const std::string& name, const char* type) {
    for (const auto& t : typed) {
      if (t == name) return;
    }
    typed.push_back(name);
    out += "# TYPE " + name + ' ' + type + '\n';
  };
  for (const MetricSample& s : snapshot) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        type_line(s.name, "counter");
        out += PrometheusSeries(s.name, s.labels) + ' ' +
               PrometheusValue(s.value) + '\n';
        break;
      case MetricSample::Kind::kGauge:
        type_line(s.name, "gauge");
        out += PrometheusSeries(s.name, s.labels) + ' ' +
               PrometheusValue(s.value) + '\n';
        break;
      case MetricSample::Kind::kHistogram: {
        // Exported as a summary: the registry keeps log-bucketed counts but
        // snapshots carry pre-computed quantiles, which is what dashboards
        // plot anyway.
        type_line(s.name, "summary");
        const std::pair<const char*, double> quantiles[] = {
            {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}};
        for (const auto& [q, v] : quantiles) {
          out += PrometheusSeries(s.name, s.labels, {{"quantile", q}}) + ' ' +
                 PrometheusValue(v) + '\n';
        }
        out += PrometheusSeries(s.name + "_sum", s.labels) + ' ' +
               PrometheusValue(s.sum) + '\n';
        out += PrometheusSeries(s.name + "_count", s.labels) + ' ' +
               std::to_string(s.count) + '\n';
        break;
      }
    }
  }
  return out;
}

HttpExporter::HttpExporter(const MetricsRegistry* registry,
                           const TimeSeriesStore* timeseries)
    : registry_(registry), timeseries_(timeseries) {}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start(uint16_t port) {
  if (running_.load(std::memory_order_acquire) || listen_fd_ >= 0) {
    return Status::Invalid("exporter already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("getsockname: " + err);
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpExporter::AcceptLoop, this);
  return Status::OK();
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExporter::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // A short poll timeout bounds how long Stop() waits for the join.
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void HttpExporter::AddTimeSeries(const std::string& name,
                                 const TimeSeriesStore* store) {
  std::lock_guard<std::mutex> lock(named_mu_);
  for (auto& [n, s] : named_) {
    if (n == name) {
      s = store;
      return;
    }
  }
  named_.emplace_back(name, store);
}

void HttpExporter::UpdateHealth(const HealthStatus& health) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_ = health;
}

bool HttpExporter::RenderPath(const std::string& target, std::string* body,
                              std::string* content_type) const {
  const size_t qpos = target.find('?');
  const std::string path =
      qpos == std::string::npos ? target : target.substr(0, qpos);
  const std::string query =
      qpos == std::string::npos ? std::string() : target.substr(qpos + 1);
  if (path == "/healthz") {
    HealthStatus health;
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      health = health_;
    }
    const bool healthy = !health.data_loss && health.init_status == "ok";
    std::ostringstream os;
    os << "{\"status\":" << JsonQuote(healthy ? "ok" : "degraded")
       << ",\"data_loss\":" << (health.data_loss ? "true" : "false")
       << ",\"init_status\":" << JsonQuote(health.init_status)
       << ",\"last_batch_id\":" << health.last_batch_id
       << ",\"journal_lag_bytes\":" << health.journal_lag_bytes << "}\n";
    *body = os.str();
    *content_type = "application/json";
    return true;
  }
  if (path == "/metrics" && registry_ != nullptr) {
    *body = PrometheusExposition(registry_->Snapshot());
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/timeseries.json") {
    const std::string tenant = QueryParam(query, "tenant");
    const TimeSeriesStore* store = timeseries_;
    if (!tenant.empty()) {
      store = nullptr;
      std::lock_guard<std::mutex> lock(named_mu_);
      for (const auto& [n, s] : named_) {
        if (n == tenant) {
          store = s;
          break;
        }
      }
    }
    if (store == nullptr) return false;  // unknown tenant / no default store
    std::ostringstream os;
    store->WriteJson(&os);
    *body = os.str();
    *content_type = "application/json";
    return true;
  }
  if (path == "/tenants.json") {
    std::ostringstream os;
    os << "{\"tenants\":[";
    std::lock_guard<std::mutex> lock(named_mu_);
    for (size_t i = 0; i < named_.size(); ++i) {
      if (i > 0) os << ',';
      os << JsonQuote(named_[i].first);
    }
    os << "]}";
    *body = os.str();
    *content_type = "application/json";
    return true;
  }
  return false;
}

void HttpExporter::HandleConnection(int fd) const {
  // Connections are served one at a time on the accept thread, so every
  // socket call carries a deadline: a client that connects and stalls (or
  // never reads its response) holds up the next scrape — and Stop() — for
  // about a second, not forever. The per-call timeout bounds each blocked
  // recv/send; the overall deadline bounds a client trickling bytes.
  constexpr int kConnectionDeadlineMs = 1000;
  const timeval timeout{kConnectionDeadlineMs / 1000,
                        (kConnectionDeadlineMs % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kConnectionDeadlineMs);

  // Read just the request line; headers are irrelevant to the three
  // endpoints and connections are one-shot (Connection: close).
  char buf[2048];
  std::string request;
  while (request.find("\r\n") == std::string::npos &&
         request.size() < sizeof(buf) &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t eol = request.find("\r\n");
  if (eol == std::string::npos) return;
  std::istringstream line(request.substr(0, eol));
  std::string method, target;
  line >> method >> target;
  // The query string passes through: RenderPath splits it off and uses it
  // to select per-tenant time-series stores.

  std::string body, content_type, status = "200 OK";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
    content_type = "text/plain; charset=utf-8";
  } else if (!RenderPath(target, &body, &content_type)) {
    status = "404 Not Found";
    body = "not found\n";
    content_type = "text/plain; charset=utf-8";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n =
        ::send(fd, response.data() + sent, response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace prompt
