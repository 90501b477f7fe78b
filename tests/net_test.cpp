// Unit suite for the net layer: frame codec over MemStream and real
// localhost sockets, shard_range properties, the matrix/projection
// payload codecs, the HTTP request parser + JSON parser, and an
// end-to-end HTTP generate round trip against a solo engine.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "net/frame.hpp"
#include "net/http.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "net/stream.hpp"
#include "obs/control.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"

namespace aptq::net {
namespace {

// --- framing ---------------------------------------------------------------

TEST(FrameTest, RoundTripThroughMemStream) {
  MemStream wire;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  send_frame(wire, MsgType::project, payload);
  wire.set_input(wire.written());
  const Frame f = recv_frame(wire, kMaxProjectPayload);
  EXPECT_EQ(f.type, MsgType::project);
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  MemStream wire;
  send_frame(wire, MsgType::shutdown, {});
  EXPECT_EQ(wire.written().size(), 16u);  // header only
  wire.set_input(wire.written());
  const Frame f = recv_frame(wire, kMaxControlPayload);
  EXPECT_EQ(f.type, MsgType::shutdown);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FrameTest, RejectsBadMagic) {
  MemStream wire;
  send_frame(wire, MsgType::hello, encode_u32(1));
  std::vector<std::uint8_t> bytes = wire.written();
  bytes[0] ^= 0xff;
  wire.set_input(bytes);
  EXPECT_THROW(recv_frame(wire, kMaxControlPayload), Error);
}

TEST(FrameTest, RejectsUnknownType) {
  MemStream wire;
  send_frame(wire, MsgType::hello, {});
  std::vector<std::uint8_t> bytes = wire.written();
  bytes[4] = 0xee;  // type field, little-endian low byte
  wire.set_input(bytes);
  EXPECT_THROW(recv_frame(wire, kMaxControlPayload), Error);
}

TEST(FrameTest, RejectsOversizedLengthBeforeAllocation) {
  MemStream wire;
  send_frame(wire, MsgType::project, {});
  std::vector<std::uint8_t> bytes = wire.written();
  bytes[13] = 0xff;  // length byte 5: claims ~2^45 bytes follow
  wire.set_input(bytes);
  try {
    recv_frame(wire, kMaxProjectPayload);
    FAIL() << "oversized length must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
  }
}

TEST(FrameTest, ExpectFrameSurfacesPeerError) {
  MemStream wire;
  try_send_error(wire, "worker exploded");
  wire.set_input(wire.written());
  try {
    expect_frame(wire, MsgType::project_out, kMaxProjectPayload);
    FAIL() << "error_report must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("worker exploded"),
              std::string::npos);
  }
}

TEST(FrameTest, ExpectFrameRejectsWrongType) {
  MemStream wire;
  send_frame(wire, MsgType::bye, {});
  wire.set_input(wire.written());
  EXPECT_THROW(expect_frame(wire, MsgType::project_out, kMaxProjectPayload),
               Error);
}

TEST(FrameTest, ScalarCodecs) {
  EXPECT_EQ(decode_u32(encode_u32(0xdeadbeefu)), 0xdeadbeefu);
  EXPECT_EQ(decode_u64(encode_u64(0x0123456789abcdefull)),
            0x0123456789abcdefull);
  EXPECT_THROW(decode_u32(encode_u64(1)), Error);
  EXPECT_THROW(decode_u64(encode_u32(1)), Error);
}

TEST(FrameTest, RoundTripOverLocalhostSocket) {
  Listener listener(0);
  std::thread echo([&listener] {
    Socket peer = listener.accept();
    Frame f = recv_frame(peer, kMaxProjectPayload);
    send_frame(peer, f.type, f.payload);
  });
  Socket client = Socket::connect("127.0.0.1", listener.port());
  const std::vector<std::uint8_t> payload(1000, 0x5a);
  send_frame(client, MsgType::project_out, payload);
  const Frame back = recv_frame(client, kMaxProjectPayload);
  echo.join();
  EXPECT_EQ(back.type, MsgType::project_out);
  EXPECT_EQ(back.payload, payload);
}

TEST(SocketTest, ConnectRefusedThrows) {
  std::uint16_t dead_port = 0;
  {
    Listener probe(0);
    dead_port = probe.port();
  }  // closed: nothing listens there now
  EXPECT_THROW(Socket::connect("127.0.0.1", dead_port), Error);
}

// --- shard ranges and payload codecs ---------------------------------------

TEST(ShardRangeTest, CoversExactlyWithBalancedSizes) {
  for (const std::size_t n : {1u, 7u, 16u, 24u, 1000u}) {
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      std::size_t lo = n;
      std::size_t hi = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const ShardRange r = shard_range(n, w, workers);
        EXPECT_EQ(r.begin, covered);  // contiguous, in order
        covered = r.end;
        lo = std::min(lo, r.size());
        hi = std::max(hi, r.size());
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(CodecTest, MatrixRoundTrip) {
  Matrix m(3, 5);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.flat()[i] = static_cast<float>(i) * 0.25f - 1.0f;
  }
  const Matrix back = decode_matrix(encode_matrix(m));
  EXPECT_EQ(back, m);
}

TEST(CodecTest, MatrixRejectsTruncation) {
  Matrix m(2, 4);
  std::vector<std::uint8_t> bytes = encode_matrix(m);
  bytes.pop_back();
  EXPECT_THROW(decode_matrix(bytes), Error);
}

TEST(CodecTest, ProjectRoundTrip) {
  Matrix x(2, 8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.flat()[i] = static_cast<float>(i);
  }
  const auto bytes = encode_project(3, LinearKind::gate_proj, x);
  const ProjectRequest req = decode_project(bytes);
  EXPECT_EQ(req.layer, 3u);
  EXPECT_EQ(req.kind, LinearKind::gate_proj);
  EXPECT_EQ(req.x, x);
}

TEST(CodecTest, ProjectRejectsBadDiscriminators) {
  Matrix x(1, 4);
  std::vector<std::uint8_t> bytes =
      encode_project(0, LinearKind::q_proj, x);
  bytes[4] = 0x7f;  // linear-kind discriminator
  EXPECT_THROW(decode_project(bytes), Error);
}

// --- JSON ------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndContainers) {
  const JsonValue v = parse_json(
      R"({"a": [1, -2.5, true, false, null], "b": {"nested": "str"}, "n": 3e2})");
  ASSERT_EQ(v.kind, JsonValue::Kind::object);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, -2.5);
  EXPECT_TRUE(a->items[2].boolean);
  EXPECT_FALSE(a->items[3].boolean);
  EXPECT_EQ(a->items[4].kind, JsonValue::Kind::null);
  const JsonValue* nested = v.find("b")->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->string, "str");
  EXPECT_EQ(v.find("n")->number, 300.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonTest, ParsesStringEscapes) {
  const JsonValue v = parse_json(R"("a\"b\\c\n\tAé")");
  EXPECT_EQ(v.string, "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), Error);
  EXPECT_THROW(parse_json("1 2"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("truu"), Error);
}

TEST(JsonTest, RejectsExcessNesting) {
  std::string deep(64, '[');
  deep += std::string(64, ']');
  EXPECT_THROW(parse_json(deep, 32), Error);
  EXPECT_NO_THROW(parse_json(deep, 100));
}

TEST(JsonTest, EscapeHelper) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// --- HTTP parsing ----------------------------------------------------------

MemStream http_input(const std::string& text) {
  return MemStream(std::vector<std::uint8_t>(text.begin(), text.end()));
}

TEST(HttpTest, ParsesRequestWithBody) {
  MemStream in = http_input(
      "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
      "Content-Type: application/json\r\n\r\nbody");
  BufferedReader reader(in);
  HttpRequest req;
  ASSERT_TRUE(read_http_request(reader, req));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/generate");
  EXPECT_EQ(req.body, "body");
  ASSERT_NE(req.header("content-type"), nullptr);
  EXPECT_EQ(*req.header("content-type"), "application/json");
}

TEST(HttpTest, CleanEofReturnsFalse) {
  MemStream in = http_input("");
  BufferedReader reader(in);
  HttpRequest req;
  EXPECT_FALSE(read_http_request(reader, req));
}

TEST(HttpTest, RejectsMalformedInput) {
  const char* cases[] = {
      "GARBAGE\r\n\r\n",                          // no spaces
      "GET /x SPDY/3\r\n\r\n",                    // bad protocol
      "GET /x HTTP/1.1\r\nbadheader\r\n\r\n",     // no colon
      "GET /x HTTP/1.1\r\nContent-Length: a\r\n\r\n",
      "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      "GET /x HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n",  // > cap
      "GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",     // truncated
  };
  for (const char* text : cases) {
    MemStream in = http_input(text);
    BufferedReader reader(in);
    HttpRequest req;
    EXPECT_THROW(read_http_request(reader, req), Error) << text;
  }
}

TEST(HttpTest, EnforcesLineAndHeaderLimits) {
  HttpLimits tight;
  tight.max_line = 32;
  tight.max_headers = 2;
  {
    MemStream in = http_input("GET /" + std::string(100, 'x') +
                              " HTTP/1.1\r\n\r\n");
    BufferedReader reader(in);
    HttpRequest req;
    EXPECT_THROW(read_http_request(reader, req, tight), Error);
  }
  {
    MemStream in = http_input(
        "GET /x HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n");
    BufferedReader reader(in);
    HttpRequest req;
    EXPECT_THROW(read_http_request(reader, req, tight), Error);
  }
}

TEST(HttpTest, WritesFixedAndChunkedResponses) {
  MemStream out;
  write_http_response(out, 200, "OK", "application/json", "{\"ok\":true}");
  const std::string fixed(out.written().begin(), out.written().end());
  EXPECT_NE(fixed.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(fixed.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(fixed.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  MemStream chunked;
  write_chunked_head(chunked, 200, "OK", "application/json");
  write_chunk(chunked, "hello");
  write_last_chunk(chunked);
  const std::string stream(chunked.written().begin(),
                           chunked.written().end());
  EXPECT_NE(stream.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  EXPECT_NE(stream.find("5\r\nhello\r\n0\r\n\r\n"), std::string::npos);
}

// --- HTTP front-end end-to-end ---------------------------------------------

ModelConfig small_config() {
  ModelConfig c;
  c.vocab_size = 24;
  c.dim = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 24;
  return c;
}

std::string http_exchange(std::uint16_t port, const std::string& request) {
  Socket client = Socket::connect("127.0.0.1", port);
  client.write_all(request.data(), request.size());
  std::string response;
  char buf[4096];
  while (true) {
    const std::size_t n = client.read_some(buf, sizeof buf);
    if (n == 0) {
      break;
    }
    response.append(buf, n);
  }
  return response;
}

TEST(HttpServeTest, HealthzAndGenerateAgainstSoloEngine) {
  const Model model = Model::init(small_config(), 17);
  serve::ServeConfig scfg;
  scfg.max_context = 64;
  serve::ServeEngine engine(serve::make_backend(model), scfg);

  Listener listener(0);
  const std::uint16_t port = listener.port();
  HttpOptions options;
  options.max_requests = 3;
  std::thread server([&] { serve_http(listener, engine, options); });

  const std::string health =
      http_exchange(port, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(health.find("\"version\":"), std::string::npos);
  EXPECT_NE(health.find("\"proto_version\":"), std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\":"), std::string::npos);

  const std::string body =
      R"({"prompt":[1,2,3],"max_new_tokens":4,"seed":9,"temperature":0.7})";
  const std::string generate = http_exchange(
      port,
      "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(generate.find("200 OK"), std::string::npos);
  const std::size_t json_at = generate.find("\r\n\r\n");
  ASSERT_NE(json_at, std::string::npos);
  const JsonValue parsed = parse_json(generate.substr(json_at + 4));
  ASSERT_NE(parsed.find("tokens"), nullptr);
  EXPECT_EQ(parsed.find("tokens")->items.size(), 4u);
  EXPECT_EQ(parsed.find("finish")->string, "max_tokens");

  const std::string missing =
      http_exchange(port, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);
  server.join();
}

TEST(HttpServeTest, MetricsAndStatzEndpoints) {
  // Telemetry on so the engine records the serve.* latency histograms the
  // /metrics scrape must expose.
  obs::reset_metrics();
  obs::set_telemetry(true);
  const Model model = Model::init(small_config(), 17);
  serve::ServeConfig scfg;
  scfg.max_context = 64;
  serve::ServeEngine engine(serve::make_backend(model), scfg);

  Listener listener(0);
  const std::uint16_t port = listener.port();
  HttpOptions options;
  options.max_requests = 3;
  options.statz_extra = [] { return std::string("\"extra\": 42"); };
  std::thread server([&] { serve_http(listener, engine, options); });

  // One generate so queue-wait/prefill/TPOT histograms have samples.
  const std::string body = R"({"prompt":[1,2,3],"max_new_tokens":4,"seed":9})";
  http_exchange(port,
                "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);

  const std::string metrics =
      http_exchange(port, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE aptq_serve_queue_wait_ms summary"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE aptq_serve_prefill_ms summary"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE aptq_serve_tpot_ms summary"),
            std::string::npos);
  EXPECT_NE(metrics.find("aptq_serve_queue_wait_ms{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("aptq_serve_tokens_generated 4"), std::string::npos);

  const std::string statz =
      http_exchange(port, "GET /statz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(statz.find("200 OK"), std::string::npos);
  const std::size_t json_at = statz.find("\r\n\r\n");
  ASSERT_NE(json_at, std::string::npos);
  const JsonValue parsed = parse_json(statz.substr(json_at + 4));
  ASSERT_NE(parsed.find("kv"), nullptr);
  EXPECT_NE(parsed.find("kv")->find("pages"), nullptr);
  ASSERT_NE(parsed.find("backpressure"), nullptr);
  ASSERT_NE(parsed.find("evicted"), nullptr);
  ASSERT_NE(parsed.find("completed"), nullptr);
  EXPECT_EQ(parsed.find("completed")->number, 1.0);
  ASSERT_NE(parsed.find("extra"), nullptr);  // statz_extra merged in
  EXPECT_EQ(parsed.find("extra")->number, 42.0);

  server.join();
  obs::set_telemetry(false);
  obs::reset_metrics();
}

TEST(HttpServeTest, StreamingGenerateChunksMatchBlockingTokens) {
  const Model model = Model::init(small_config(), 17);
  serve::ServeConfig scfg;
  scfg.max_context = 64;
  serve::ServeEngine engine(serve::make_backend(model), scfg);

  Listener listener(0);
  const std::uint16_t port = listener.port();
  HttpOptions options;
  options.max_requests = 2;
  std::thread server([&] { serve_http(listener, engine, options); });

  const std::string body =
      R"({"prompt":[4,5],"max_new_tokens":5,"seed":3,"stream":true})";
  const auto request = [&](const std::string& b) {
    return "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: " +
           std::to_string(b.size()) + "\r\n\r\n" + b;
  };
  const std::string streamed = http_exchange(port, request(body));
  EXPECT_NE(streamed.find("Transfer-Encoding: chunked"), std::string::npos);
  // 5 per-token lines, then the summary line carrying the full token list.
  std::vector<TokenId> chunk_tokens;
  std::size_t at = 0;
  while ((at = streamed.find("{\"token\":", at)) != std::string::npos) {
    at += 9;
    chunk_tokens.push_back(
        static_cast<TokenId>(std::stol(streamed.substr(at))));
  }
  ASSERT_EQ(chunk_tokens.size(), 5u);

  // Same request (new seed stream id, same engine model) without
  // streaming: the summary and blocking responses carry identical tokens
  // for identical (seed, id) — here we just cross-check the summary line
  // against the streamed chunks.
  const std::size_t sum_at = streamed.find("\"tokens\":[");
  ASSERT_NE(sum_at, std::string::npos);
  std::string list = streamed.substr(sum_at + 10);
  list = list.substr(0, list.find(']'));
  std::vector<TokenId> summary_tokens;
  std::size_t pos = 0;
  while (pos < list.size()) {
    summary_tokens.push_back(
        static_cast<TokenId>(std::stol(list.substr(pos))));
    const std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  EXPECT_EQ(summary_tokens, chunk_tokens);

  const std::string bad = http_exchange(port, request("{\"prompt\":7}"));
  EXPECT_NE(bad.find("400"), std::string::npos);
  server.join();
}

}  // namespace
}  // namespace aptq::net
