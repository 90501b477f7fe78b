// tp2_http: the full stack. Streaming POST /v1/generate requests from a
// closed loop of two clients (one client thread, two connections in
// flight) to serve_http on its own thread, fronting a ShardedModel whose
// projections run on two in-process workers over loopback TCP. The serving
// phase runs on one CPU (see pin_to_current_cpu).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "net/http.hpp"
#include "net/sharded_model.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve_driver.hpp"
#include "util/check.hpp"

namespace e2e {

namespace {

using aptq::serve::Request;

constexpr std::size_t kVocab = 64;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWarmupRequests = 4;
constexpr std::size_t kOutputTokens = 32;
constexpr std::size_t kCheckLimit = 48;
constexpr Slo kSlo = {/*ttft_ms=*/300.0, /*itl_ms=*/10.0};

/// The serving stack: in-process shard workers on loopback sockets, the
/// sharded root, the engine over it, and the HTTP listener.
class Stack {
 public:
  Stack(const aptq::PackedModel& model, KvSampler* kv) {
    std::vector<std::unique_ptr<aptq::net::Stream>> streams;
    for (std::size_t i = 0; i < kWorkers; ++i) {
      auto listener = std::make_shared<aptq::net::Listener>(0);
      const std::uint16_t port = listener->port();
      workers_.emplace_back([listener] {
        try {
          aptq::net::Socket conn = listener->accept();
          aptq::net::serve_worker(conn);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "e2ebench: shard worker: %s\n", e.what());
        }
      });
      streams.push_back(std::make_unique<aptq::net::Socket>(
          aptq::net::Socket::connect("127.0.0.1", port)));
    }
    sharded_ =
        std::make_unique<aptq::net::ShardedModel>(model, std::move(streams));
    aptq::serve::Backend backend = aptq::net::make_backend(*sharded_);
    if (kv != nullptr) {
      backend = kv->wrap(std::move(backend));
    }
    engine_ = std::make_unique<aptq::serve::ServeEngine>(
        std::move(backend), engine_config(kMaxBatch));
    if (kv != nullptr) {
      kv->engine = engine_.get();
    }
    listener_ = std::make_unique<aptq::net::Listener>(0);
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    engine_.reset();
    sharded_->shutdown();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  aptq::net::ShardedModel& sharded() { return *sharded_; }
  aptq::serve::ServeEngine& engine() { return *engine_; }
  aptq::net::Listener& listener() { return *listener_; }

 private:
  std::vector<std::thread> workers_;
  std::unique_ptr<aptq::net::ShardedModel> sharded_;
  std::unique_ptr<aptq::serve::ServeEngine> engine_;
  std::unique_ptr<aptq::net::Listener> listener_;
};

/// Confines the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on. Each token crosses roughly a hundred thread
/// hand-offs (29 round trips to two workers, plus the HTTP stream). Across
/// the vCPUs of a shared VM, a hand-off often has to wake a halted vCPU,
/// and the host delays that wake-up by however busy it is, so unpinned
/// runs measured the host's load more than the program. On one CPU a
/// hand-off is a local context switch, and host steal slows the run only
/// in proportion to the time it takes away. Where the host forbids it the
/// run goes on unpinned, which the provenance block's affinity_cpus shows.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  }
  if (cpu < 0 || ::sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "e2ebench: could not pin tp2_http to one CPU: %s\n",
                 std::strerror(errno));
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  APTQ_CHECK(fd >= 0, "client socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    APTQ_FAIL(std::string("client connect failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    APTQ_CHECK(n > 0, "client send failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string generate_body(const Request& r) {
  std::string prompt;
  for (const aptq::TokenId t : r.prompt) {
    prompt += (prompt.empty() ? "" : ",") + std::to_string(t);
  }
  char sampling[96];
  std::snprintf(sampling, sizeof sampling,
                "\"temperature\":%.9g,\"top_k\":%zu",
                static_cast<double>(r.sampling.temperature),
                r.sampling.top_k);
  return "{\"prompt\":[" + prompt + "],\"max_new_tokens\":" +
         std::to_string(r.max_new_tokens) + "," + sampling +
         ",\"seed\":" + std::to_string(r.seed) + ",\"stream\":true}";
}

/// One streaming request in flight on its own connection; parses the
/// chunked response incrementally as bytes arrive.
struct Call {
  int fd = -1;
  std::size_t index = 0;  ///< into the client's request list
  std::string buf;
  bool head_done = false;
  bool done = false;
  RequestTrace trace;
  long long server_id = -1;
  aptq::TokenSeq summary_tokens;

  /// Consumes buffered bytes; returns false once the response is complete
  /// or broken.
  bool parse(double at) {
    if (!head_done) {
      const auto end = buf.find("\r\n\r\n");
      if (end == std::string::npos) {
        return true;
      }
      if (buf.rfind("HTTP/1.1 200", 0) != 0) {
        trace.failed = true;
        return false;
      }
      buf.erase(0, end + 4);
      head_done = true;
    }
    for (;;) {
      const auto eol = buf.find("\r\n");
      if (eol == std::string::npos) {
        return true;
      }
      const std::size_t len = std::strtoul(buf.c_str(), nullptr, 16);
      if (buf.size() < eol + 2 + len + 2) {
        return true;
      }
      const std::string data = buf.substr(eol + 2, len);
      buf.erase(0, eol + 2 + len + 2);
      if (len == 0) {
        done = true;
        return false;
      }
      const aptq::net::JsonValue v = aptq::net::parse_json(data);
      if (const aptq::net::JsonValue* tok = v.find("token")) {
        trace.tokens.push_back(static_cast<aptq::TokenId>(tok->number));
        trace.token_at.push_back(at);
      } else {
        server_id = static_cast<long long>(v.find("id")->number);
        trace.finish = v.find("finish")->string == "max_tokens"
                           ? aptq::serve::FinishReason::max_tokens
                           : aptq::serve::FinishReason::context_full;
        for (const auto& t : v.find("tokens")->items) {
          summary_tokens.push_back(static_cast<aptq::TokenId>(t.number));
        }
      }
    }
  }
};

struct Session {
  std::vector<Call> calls;  ///< finished calls, in completion order
  double wall_s = 0.0;
};

/// Runs `requests` through the server as a closed loop of kClients
/// connections, with serve_http accepting exactly requests.size()
/// connections on its own thread.
Session run_session(Stack& stack, const std::vector<Request>& requests) {
  Session session;
  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      aptq::net::HttpOptions options;
      options.max_requests = requests.size();
      aptq::net::serve_http(stack.listener(), stack.engine(), options);
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  const std::uint16_t port = stack.listener().port();
  std::size_t next = 0;
  std::vector<std::unique_ptr<Call>> live;
  const auto start = [&] {
    auto call = std::make_unique<Call>();
    call->index = next++;
    call->fd = connect_loopback(port);
    const std::string body = generate_body(requests[call->index]);
    call->trace.due = call->trace.sent = now_s();
    write_all(call->fd,
              "POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/json\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
    live.push_back(std::move(call));
  };
  const double t0 = now_s();
  try {
    while (next < requests.size() && live.size() < kClients) {
      start();
    }
    while (!live.empty()) {
      std::vector<pollfd> fds;
      for (const auto& c : live) {
        fds.push_back({c->fd, POLLIN, 0});
      }
      APTQ_CHECK(::poll(fds.data(), fds.size(), 30000) > 0,
                 "client poll timed out");
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) {
          continue;
        }
        Call& c = *live[i];
        char chunk[4096];
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        const double at = now_s();
        bool open = n > 0;
        if (open) {
          c.buf.append(chunk, static_cast<std::size_t>(n));
          open = c.parse(at);
        }
        if (!open) {
          c.trace.failed = c.trace.failed || !c.done;
          ::close(c.fd);
          c.fd = -1;
        }
      }
      for (std::size_t i = 0; i < live.size();) {
        if (live[i]->fd >= 0) {
          ++i;
          continue;
        }
        session.calls.push_back(std::move(*live[i]));
        live.erase(live.begin() + static_cast<long>(i));
        if (next < requests.size()) {
          start();
        }
      }
    }
  } catch (...) {
    // Let the accept loop run out its remaining connections so the server
    // thread ends, then report the client error.
    for (auto& c : live) {
      ::close(c->fd);
    }
    for (; next < requests.size(); ++next) {
      ::close(connect_loopback(port));
    }
    server.join();
    throw;
  }
  session.wall_s = now_s() - t0;
  server.join();
  if (server_error) {
    std::rethrow_exception(server_error);
  }
  return session;
}

std::vector<Request> tp2_requests(aptq::Rng& rng, std::size_t n) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < n; ++i) {
    Request r = make_request(
        rng, random_tokens(rng, uniform_in(rng, 8, 48), kVocab),
        kOutputTokens);
    r.seed >>= 12;  // JSON numbers carry 53 bits exactly
    out.push_back(std::move(r));
  }
  return out;
}

/// Requests and observed streams by server-assigned id, for the oracle.
struct ById {
  std::vector<Request> requests;
  std::vector<aptq::TokenSeq> tokens;
  bool aligned = true;

  void add(const Session& s, const std::vector<Request>& requests_sent) {
    for (const Call& c : s.calls) {
      if (c.server_id < 0) {
        aligned = false;
        continue;
      }
      const auto id = static_cast<std::size_t>(c.server_id);
      if (requests.size() <= id) {
        requests.resize(id + 1);
        tokens.resize(id + 1);
      }
      requests[id] = requests_sent[c.index];
      tokens[id] = c.trace.tokens;
      aligned = aligned && c.summary_tokens == c.trace.tokens;
    }
  }
};

std::vector<RequestTrace> traces_of(const Session& s,
                                    const std::vector<Request>& sent,
                                    std::size_t& failed) {
  std::vector<RequestTrace> out;
  for (const Call& c : s.calls) {
    RequestTrace tr = c.trace;
    tr.failed = tr.failed ||
                tr.finish != aptq::serve::FinishReason::max_tokens ||
                tr.tokens.size() != sent[c.index].max_new_tokens;
    failed += tr.failed ? 1 : 0;
    out.push_back(std::move(tr));
  }
  return out;
}

double wall_per_token(const Session& s) {
  double tokens = 0.0;
  for (const Call& c : s.calls) {
    tokens += static_cast<double>(c.trace.tokens.size());
  }
  return tokens > 0.0 ? s.wall_s / tokens : 0.0;
}

struct LinkTotals {
  double projections = 0.0;
  double bytes = 0.0;
};

LinkTotals link_totals(const aptq::net::ShardedModel& sharded) {
  LinkTotals t;
  // Every projection is one round trip to each worker, in parallel.
  t.projections =
      static_cast<double>(sharded.link_stats().front().projections);
  for (const auto& link : sharded.link_stats()) {
    t.bytes += static_cast<double>(link.bytes_sent + link.bytes_recv);
  }
  return t;
}

void report_net_layers(const Session& traced, const SpanTotals& spans,
                       const LinkTotals& before, const LinkTotals& after,
                       const aptq::net::ShardedModel& sharded,
                       const aptq::serve::ServeStats& stats,
                       const KvSampler& kv, Result& result) {
  double tokens = 0.0;
  std::vector<double> client_ttft;
  for (const Call& c : traced.calls) {
    tokens += static_cast<double>(c.trace.tokens.size());
    if (!c.trace.token_at.empty()) {
      client_ttft.push_back((c.trace.token_at.front() - c.trace.sent) * 1e3);
    }
  }
  result.set("net.round_trips_per_token",
             (after.projections - before.projections) / tokens, "count");
  result.set("net.wire_bytes_per_token", (after.bytes - before.bytes) / tokens,
             "B");
  std::vector<double> rpc_ms;
  std::vector<double> step_ms;
  std::size_t prefills = 0;
  for (const auto& [name, entry] : spans.by_name) {
    if (name.rfind("rpc.", 0) == 0) {
      rpc_ms.insert(rpc_ms.end(), entry.durations_ms.begin(),
                    entry.durations_ms.end());
    } else if (name == "serve.step") {
      step_ms = entry.durations_ms;
    } else if (name.rfind("serve.request.", 0) == 0) {
      prefills += entry.count;  // one prefill span per request
    }
  }
  result.set("net.rpc_ms_p50", median(rpc_ms), "ms");
  double rtt_ns = 0.0;
  for (const auto& link : sharded.link_stats()) {
    rtt_ns += static_cast<double>(link.rtt_ns);
  }
  result.set("net.handshake_rtt_us",
             rtt_ns / static_cast<double>(sharded.link_stats().size()) * 1e-3,
             "us");
  result.set("http.overhead_ms_p50",
             median(client_ttft) -
                 aptq::obs::histogram("serve.ttft_ms").percentile(50.0),
             "ms");

  // Engine-side numbers come from the program's own spans and metrics:
  // serve_http drives ServeEngine::run() on the server thread.
  result.set("serve.queue_wait_p50_ms",
             aptq::obs::histogram("serve.queue_wait_ms").percentile(50.0),
             "ms");
  result.set("serve.prefill_ms_p50",
             aptq::obs::histogram("serve.prefill_ms").percentile(50.0), "ms");
  result.set("serve.step_ms_p50", quantile(step_ms, 0.50), "ms");
  result.set("serve.step_ms_p99", quantile(step_ms, 0.99), "ms");
  // serve_http runs one request to completion at a time, so each prefill
  // has a step of its own.
  result.set("serve.prefill_step_share",
             step_ms.empty() ? 0.0
                             : static_cast<double>(prefills) /
                                   static_cast<double>(step_ms.size()),
             "share");
  const auto batch = aptq::obs::histogram("serve.batch_size").snapshot();
  result.set("serve.batch_rows_mean",
             batch.count > 0 ? batch.sum / static_cast<double>(batch.count)
                             : 0.0,
             "rows");
  double busy_ms = 0.0;
  for (const double ms : step_ms) {
    busy_ms += ms;
  }
  result.set("serve.busy_share", busy_ms * 1e-3 / traced.wall_s, "share");
  result.set("serve.evicted",
             static_cast<double>(stats.evicted_capacity + stats.evicted_pages),
             "count");
  result.set("serve.backpressure_steps",
             static_cast<double>(stats.backpressure_slots +
                                 stats.backpressure_pages),
             "count");
  result.set("kv.mapped_share_mean", mean(kv.share), "share");
  result.set("kv.peak_mapped_mib", kv.peak_bytes / kMiB, "MiB");
  result.set("prompt.shared_token_share", 0.0, "share");
  // A closed loop sends each request the moment the previous one ends:
  // there is no schedule to fall behind.
  result.set("driver.late_p99_ms", 0.0, "ms");
}

}  // namespace

void run_tp2_http(const Options& opt, Result& result) {
  // Quantized at pool 2, as on the other workloads: at pool 1 quantize_s
  // spread 0.26 over ten seeds, against 0.10 at pool 2 on batch_decode.
  set_pool_threads(2);
  Artifact artifact;
  prepare_serving(
      opt, artifact,
      [&] {
        const double t0 = now_s();
        const Stack stack(artifact.packed, nullptr);
        return now_s() - t0;
      },
      result);

  set_pool_threads(1);
  pin_to_current_cpu();
  KvSampler kv;
  Stack stack(artifact.packed, opt.trace ? &kv : nullptr);
  aptq::Rng rng(opt.seed);
  ById by_id;

  // Warm-up: sizes the measured session so it lasts about opt.seconds.
  const std::vector<Request> warm = tp2_requests(rng, kWarmupRequests);
  const Session warm_session = run_session(stack, warm);
  by_id.add(warm_session, warm);
  const double per_request =
      warm_session.wall_s / static_cast<double>(kWarmupRequests);
  const auto total = std::max(
      kMinRequests,
      static_cast<std::size_t>(std::round(opt.seconds / per_request)));

  std::size_t failed = 0;
  traces_of(warm_session, warm, failed);
  result.attempted += warm.size();
  if (!opt.trace) {
    const std::vector<Request> sent = tp2_requests(rng, total);
    const Session s = run_session(stack, sent);
    by_id.add(s, sent);
    report_latency(traces_of(s, sent, failed), kSlo, s.wall_s, result);
    result.attempted += sent.size();
  } else {
    const std::vector<Request> plain_sent = tp2_requests(rng, total / 2);
    const Session plain = run_session(stack, plain_sent);
    by_id.add(plain, plain_sent);
    traces_of(plain, plain_sent, failed);

    const LinkTotals before = link_totals(stack.sharded());
    kv.share.clear();
    kv.peak_bytes = 0.0;
    const std::vector<Request> traced_sent = tp2_requests(rng, total / 2);
    reset_observability();
    aptq::obs::set_tracing(true);
    aptq::obs::set_telemetry(true);
    const Session traced = run_session(stack, traced_sent);
    aptq::obs::set_tracing(false);
    aptq::obs::set_telemetry(false);
    by_id.add(traced, traced_sent);
    traces_of(traced, traced_sent, failed);
    report_net_layers(traced, collect_spans(), before,
                      link_totals(stack.sharded()), stack.sharded(),
                      stack.engine().stats(), kv, result);
    result.set("obs.trace_overhead_share",
               wall_per_token(traced) / wall_per_token(plain), "ratio");
    result.attempted += plain_sent.size() + traced_sent.size();
  }
  result.failed += failed;

  // Output check: the streams served over HTTP by the sharded stack must
  // equal the local packed model's solo streams.
  for (const Request& r : by_id.requests) {
    by_id.aligned = by_id.aligned && !r.prompt.empty();  // no id missing
  }
  if (!by_id.aligned) {
    result.fail_check("HTTP responses could not be matched to engine ids, or "
                      "streamed tokens differ from the summary");
    return;
  }
  const std::size_t bad = check_against_solo(
      aptq::serve::make_backend(artifact.packed), by_id.requests,
      by_id.tokens,
      pick_checked(by_id.requests.size(), kCheckLimit, opt.seed));
  if (bad > 0) {
    result.fail_check(std::to_string(bad) +
                      " HTTP token streams differ from the local packed "
                      "solo streams");
  }
}

}  // namespace e2e
