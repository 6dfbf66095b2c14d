#include "behaviot/obs/telemetry_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/trace.hpp"

namespace behaviot::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer gone or send timeout — drop the connection
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryServerOptions options)
    : options_(std::move(options)) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  auto fail = [&](const char* stage) {
    if (error != nullptr) {
      *error = std::string(stage) + ": " + std::strerror(errno);
    }
    close_fd(listen_fd_);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("bind address");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 16) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0) return fail("pipe");

  started_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    Tracer::set_thread_label("telemetry-http");
    serve_loop();
  });
  return true;
}

void TelemetryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake the poll loop; if the pipe is somehow full the loop still exits on
  // its next accept timeout.
  const char byte = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

void TelemetryServer::publish_status_json(std::string json) {
  auto doc = std::make_shared<const std::string>(std::move(json));
  std::lock_guard<std::mutex> lock(mu_);
  status_json_ = std::move(doc);
}

void TelemetryServer::publish_trace_json(std::string json) {
  auto doc = std::make_shared<const std::string>(std::move(json));
  std::lock_guard<std::mutex> lock(mu_);
  trace_json_ = std::move(doc);
}

void TelemetryServer::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure: nothing sane left to do but shut down
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // A stalled or malicious client must not wedge the scrape surface: cap
    // both directions at 2 s and drop the connection on expiry.
    timeval tmo{2, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tmo, sizeof(tmo));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tmo, sizeof(tmo));
    handle_connection(client);
    ::close(client);
  }
}

void TelemetryServer::handle_connection(int fd) {
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // timeout or disconnect before a full request line
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  Response resp;
  std::istringstream line(request.substr(0, request.find("\r\n")));
  std::string method;
  std::string target;
  line >> method >> target;
  const bool head = method == "HEAD";
  if (method.empty() || target.empty() || target[0] != '/') {
    resp = {400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else if (!head && method != "GET") {
    resp = {405, "text/plain; charset=utf-8",
            "only GET and HEAD are supported\n"};
  } else {
    // Query strings are accepted and ignored — scrapers commonly append
    // cache-busting parameters.
    if (const auto q = target.find('?'); q != std::string::npos) {
      target.resize(q);
    }
    resp = dispatch(target);
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  counter("telemetry.http_requests").inc();
  if (resp.status >= 400) counter("telemetry.http_errors").inc();

  std::string header = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                       reason_phrase(resp.status) +
                       "\r\nContent-Type: " + resp.content_type +
                       "\r\nContent-Length: " +
                       std::to_string(resp.body.size()) +
                       "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, header.data(), header.size())) return;
  if (!head) send_all(fd, resp.body.data(), resp.body.size());
}

TelemetryServer::Response TelemetryServer::dispatch(
    const std::string& target) {
  if (target == "/metrics") return metrics_response(/*as_json=*/false);
  if (target == "/metrics.json") return metrics_response(/*as_json=*/true);
  if (target == "/healthz") return healthz_response();
  if (target == "/statusz") return statusz_response();
  if (target == "/tracez") return tracez_response();
  if (target == "/") {
    return {200, "text/plain; charset=utf-8",
            "behaviot telemetry\n"
            "  /metrics       Prometheus 0.0.4 exposition\n"
            "  /metrics.json  metrics snapshot as JSON\n"
            "  /healthz       200 ok / 503 + health table\n"
            "  /statusz       run status JSON\n"
            "  /tracez        recent-event trace (Chrome JSON)\n"};
  }
  return {404, "text/plain; charset=utf-8", "unknown endpoint\n"};
}

TelemetryServer::Response TelemetryServer::metrics_response(bool as_json) {
  update_process_gauges();
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  const HealthSnapshot hs = health().snapshot();
  if (as_json) {
    return {200, "application/json; charset=utf-8", to_json(snap, hs)};
  }
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          to_prometheus(snap, hs)};
}

TelemetryServer::Response TelemetryServer::healthz_response() {
  const HealthSnapshot hs = health().snapshot();
  if (hs.overall() == ComponentState::kHealthy) {
    return {200, "text/plain; charset=utf-8", "ok\n"};
  }
  return {503, "text/plain; charset=utf-8", render_health_table(hs)};
}

TelemetryServer::Response TelemetryServer::statusz_response() {
  const ProcessStats ps = collect_process_stats();
  const double server_uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::shared_ptr<const std::string> status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = status_json_;
  }
  std::ostringstream out;
  out << "{\"server\":{\"port\":" << port_
      << ",\"uptime_seconds\":" << server_uptime
      << ",\"requests\":" << requests_.load(std::memory_order_relaxed)
      << "},\"process\":{\"rss_bytes\":" << ps.rss_bytes
      << ",\"cpu_seconds\":" << ps.cpu_seconds
      << ",\"uptime_seconds\":" << ps.uptime_seconds << "},\"health\":\""
      << to_string(health().snapshot().overall()) << "\",\"watch\":"
      << (status != nullptr ? *status : std::string("null")) << "}";
  return {200, "application/json; charset=utf-8", out.str()};
}

TelemetryServer::Response TelemetryServer::tracez_response() {
  std::shared_ptr<const std::string> doc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doc = trace_json_;
  }
  if (doc != nullptr) {
    return {200, "application/json; charset=utf-8", *doc};
  }
  if (Tracer::enabled()) {
    // The rings are being written concurrently; reading them here would
    // violate the tracer's quiescence contract. The watch loop publishes a
    // snapshot at its next window boundary.
    return {503, "application/json; charset=utf-8",
            "{\"error\":\"trace snapshot pending; published at the next "
            "window boundary\"}"};
  }
  // Tracer disarmed: the rings are static, a direct render is safe. Covers
  // post-run inspection and commands that stopped tracing before exit.
  return {200, "application/json; charset=utf-8",
          trace_to_chrome_json(Tracer::global().snapshot())};
}

}  // namespace behaviot::obs
