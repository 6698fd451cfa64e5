#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

namespace prompt {
namespace {

/// Minimal blocking HTTP GET against 127.0.0.1:port; returns the raw
/// response (status line + headers + body), or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(PrometheusExpositionTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("prompt_batches_total")->Increment(12);
  registry.GetGauge("prompt_batch_w")->Set(0.75);
  const std::string text = PrometheusExposition(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE prompt_batches_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("prompt_batches_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prompt_batch_w gauge\n"), std::string::npos);
  EXPECT_NE(text.find("prompt_batch_w 0.75\n"), std::string::npos);
}

TEST(PrometheusExpositionTest, LabelsAreQuotedAndTypeLinesDeduped) {
  MetricsRegistry registry;
  registry.GetCounter("tuples_total", {{"shard", "0"}})->Increment(3);
  registry.GetCounter("tuples_total", {{"shard", "1"}})->Increment(4);
  const std::string text = PrometheusExposition(registry.Snapshot());
  EXPECT_NE(text.find("tuples_total{shard=\"0\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tuples_total{shard=\"1\"} 4\n"), std::string::npos);
  // One TYPE line for the family despite two labeled series.
  const size_t first = text.find("# TYPE tuples_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE tuples_total counter", first + 1),
            std::string::npos);
}

TEST(PrometheusExpositionTest, HistogramsExportAsSummaries) {
  MetricsRegistry registry;
  HistogramMetric* hist = registry.GetHistogram("latency_us");
  for (int i = 0; i < 10; ++i) hist->Observe(100.0);
  const std::string text = PrometheusExposition(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE latency_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_us_sum 1000\n"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count 10\n"), std::string::npos);
}

TEST(HttpExporterTest, ServesAllThreeEndpoints) {
  MetricsRegistry registry;
  registry.GetCounter("prompt_batches_total")->Increment(5);
  TimeSeriesStore timeseries;
  TimeSeriesPoint p;
  p.batch_id = 0;
  p.set(TimeSeriesSignal::kLatencyUs, 1234.0);
  timeseries.Push(p);

  HttpExporter exporter(&registry, &timeseries);
  ASSERT_TRUE(exporter.Start(0).ok());  // ephemeral port
  ASSERT_NE(exporter.port(), 0);
  EXPECT_TRUE(exporter.serving());

  const std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("prompt_batches_total 5"), std::string::npos)
      << metrics;

  const std::string ts = HttpGet(exporter.port(), "/timeseries.json");
  EXPECT_NE(ts.find("200 OK"), std::string::npos);
  EXPECT_NE(ts.find("application/json"), std::string::npos);
  EXPECT_NE(ts.find("\"batch_id\":0"), std::string::npos) << ts;
  EXPECT_NE(ts.find("\"latency_us\":1234"), std::string::npos);

  const std::string missing = HttpGet(exporter.port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  EXPECT_GE(exporter.requests_served(), 4u);
  exporter.Stop();
  EXPECT_FALSE(exporter.serving());
}

TEST(HttpExporterTest, NullSourcesAnswer404ButHealthzWorks) {
  HttpExporter exporter(nullptr, nullptr);
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_NE(HttpGet(exporter.port(), "/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(exporter.port(), "/metrics").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(exporter.port(), "/timeseries.json").find("404"),
            std::string::npos);
}

TEST(HttpExporterTest, StartTwiceFailsAndStopIsIdempotent) {
  MetricsRegistry registry;
  HttpExporter exporter(&registry, nullptr);
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_FALSE(exporter.Start(0).ok());
  exporter.Stop();
  exporter.Stop();  // second stop is a no-op
}

TEST(HttpExporterTest, RenderPathWithoutSocket) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(2.5);
  TimeSeriesStore timeseries;
  HttpExporter exporter(&registry, &timeseries);  // never started

  std::string body, type;
  ASSERT_TRUE(exporter.RenderPath("/metrics", &body, &type));
  EXPECT_NE(body.find("g 2.5"), std::string::npos);
  ASSERT_TRUE(exporter.RenderPath("/timeseries.json", &body, &type));
  EXPECT_EQ(type, "application/json");
  EXPECT_FALSE(exporter.RenderPath("/other", &body, &type));
}

TEST(HttpExporterTest, PerTenantStoresServeByQueryParameter) {
  MetricsRegistry registry;
  TimeSeriesStore default_store;
  TimeSeriesStore calm_store;
  TimeSeriesStore noisy_store;
  TimeSeriesPoint p;
  p.batch_id = 1;
  p.set(TimeSeriesSignal::kLatencyUs, 111.0);
  calm_store.Push(p);
  p.batch_id = 2;
  p.set(TimeSeriesSignal::kLatencyUs, 222.0);
  noisy_store.Push(p);

  HttpExporter exporter(&registry, &default_store);
  exporter.AddTimeSeries("calm", &calm_store);
  exporter.AddTimeSeries("noisy", &noisy_store);

  std::string body, type;
  // The no-arg form keeps serving the default store (backward compatible).
  ASSERT_TRUE(exporter.RenderPath("/timeseries.json", &body, &type));
  EXPECT_EQ(body.find("\"batch_id\":1"), std::string::npos) << body;

  ASSERT_TRUE(exporter.RenderPath("/timeseries.json?tenant=calm", &body, &type));
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"batch_id\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"latency_us\":111"), std::string::npos);

  ASSERT_TRUE(
      exporter.RenderPath("/timeseries.json?tenant=noisy", &body, &type));
  EXPECT_NE(body.find("\"latency_us\":222"), std::string::npos) << body;

  // Unknown tenant -> 404, not the default store.
  EXPECT_FALSE(
      exporter.RenderPath("/timeseries.json?tenant=ghost", &body, &type));

  // The tenant index lists every registered store.
  ASSERT_TRUE(exporter.RenderPath("/tenants.json", &body, &type));
  EXPECT_EQ(type, "application/json");
  EXPECT_NE(body.find("\"calm\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"noisy\""), std::string::npos);

  // Re-registering a name replaces the store rather than duplicating it.
  TimeSeriesStore replacement;
  p.batch_id = 9;
  p.set(TimeSeriesSignal::kLatencyUs, 999.0);
  replacement.Push(p);
  exporter.AddTimeSeries("calm", &replacement);
  ASSERT_TRUE(exporter.RenderPath("/timeseries.json?tenant=calm", &body, &type));
  EXPECT_NE(body.find("\"batch_id\":9"), std::string::npos) << body;
}

TEST(HttpExporterTest, TenantQueryWorksOverTheSocket) {
  MetricsRegistry registry;
  TimeSeriesStore store;
  TimeSeriesPoint p;
  p.batch_id = 7;
  p.set(TimeSeriesSignal::kLatencyUs, 777.0);
  store.Push(p);

  HttpExporter exporter(&registry, nullptr);
  exporter.AddTimeSeries("calm", &store);
  ASSERT_TRUE(exporter.Start(0).ok());

  const std::string ok =
      HttpGet(exporter.port(), "/timeseries.json?tenant=calm");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"batch_id\":7"), std::string::npos);

  const std::string missing =
      HttpGet(exporter.port(), "/timeseries.json?tenant=ghost");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos) << missing;

  const std::string index = HttpGet(exporter.port(), "/tenants.json");
  EXPECT_NE(index.find("\"calm\""), std::string::npos) << index;
}

TEST(HttpExporterTest, HealthzReportsEngineHealthAsJson) {
  HttpExporter exporter(nullptr, nullptr);
  ASSERT_TRUE(exporter.Start(0).ok());

  // Before any engine publishes, /healthz serves the healthy defaults.
  std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("application/json"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"data_loss\":false"), std::string::npos);
  EXPECT_NE(health.find("\"init_status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"last_batch_id\":-1"), std::string::npos);
  EXPECT_NE(health.find("\"journal_lag_bytes\":0"), std::string::npos);

  // The engine's per-batch publish lands verbatim.
  HealthStatus status;
  status.data_loss = false;
  status.init_status = "ok";
  status.last_batch_id = 41;
  status.journal_lag_bytes = 1234;
  exporter.UpdateHealth(status);
  health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"last_batch_id\":41"), std::string::npos);
  EXPECT_NE(health.find("\"journal_lag_bytes\":1234"), std::string::npos);

  // Data loss flips the top-level verdict to degraded.
  status.data_loss = true;
  exporter.UpdateHealth(status);
  health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("\"data_loss\":true"), std::string::npos);

  // So does a failed engine init, and the status string passes through
  // JSON-quoted.
  status.data_loss = false;
  status.init_status = "IOError: store segment unreadable";
  exporter.UpdateHealth(status);
  health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(health.find("store segment unreadable"), std::string::npos);
}

// A client that connects and never sends a request must not wedge the
// single accept thread: a concurrent scrape is still answered and Stop()
// still joins, both within the per-connection deadline (plus slack).
TEST(HttpExporterTest, IdleClientCannotBlockScrapesOrStop) {
  HttpExporter exporter(nullptr, nullptr);
  ASSERT_TRUE(exporter.Start(0).ok());
  auto connect_idle = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(exporter.port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  };
  using Clock = std::chrono::steady_clock;
  const int idle = connect_idle();
  const auto scrape_start = Clock::now();
  const std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_LT(Clock::now() - scrape_start, std::chrono::seconds(5));

  // Let the accept thread pick the idle client up (its poll tick is 50 ms)
  // so Stop() has to wait out that connection.
  const int idle_at_stop = connect_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stop_start = Clock::now();
  exporter.Stop();
  EXPECT_LT(Clock::now() - stop_start, std::chrono::seconds(5));
  ::close(idle);
  ::close(idle_at_stop);
}

TEST(HttpExporterTest, BindFailureReturnsIOError) {
  MetricsRegistry registry;
  HttpExporter first(&registry, nullptr);
  ASSERT_TRUE(first.Start(0).ok());
  HttpExporter second(&registry, nullptr);
  const Status st = second.Start(first.port());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

}  // namespace
}  // namespace prompt
