// Adversarial suite for the wire protocol: truncated frames, bit-flipped
// headers, oversized length prefixes, corrupted shard payloads, and
// mid-stream disconnects, driven against both recv_frame and a full
// worker session. The invariant everywhere: a clean aptq::Error (or a
// clean return), never a crash, a hang, or an unbounded allocation —
// MemStream reports end-of-stream on exhaustion, so any would-be hang
// surfaces as a truncation error instead.
#include <gtest/gtest.h>

#include <cstring>

#include "net/frame.hpp"
#include "net/shard.hpp"
#include "net/sharded_model.hpp"
#include "net/stream.hpp"
#include "net/worker.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aptq::net {
namespace {

ModelConfig fuzz_config() {
  ModelConfig c;
  c.vocab_size = 24;
  c.dim = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.ffn_dim = 24;
  return c;
}

/// Bytes of a complete, valid worker session: hello, load_shard, one
/// projection, shutdown.
std::vector<std::uint8_t> valid_session_bytes() {
  MemStream wire;
  send_frame(wire, MsgType::hello, encode_u32(kProtoVersion));
  const Model model = Model::init(fuzz_config(), 5);
  send_frame(wire, MsgType::load_shard,
             shard_to_bytes(make_shard(model, 0, 2)));
  Matrix x(1, fuzz_config().dim);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.flat()[i] = 0.01f * static_cast<float>(i);
  }
  send_frame(wire, MsgType::project,
             encode_project(0, LinearKind::q_proj, x));
  send_frame(wire, MsgType::shutdown, {});
  return wire.written();
}

TEST(NetFuzzTest, ValidSessionCompletes) {
  MemStream wire(valid_session_bytes());
  EXPECT_NO_THROW(serve_worker(wire));
  // The worker's replies end with the bye frame.
  MemStream replies(wire.written());
  expect_frame(replies, MsgType::hello_ack, kMaxControlPayload);
  expect_frame(replies, MsgType::shard_ready, kMaxControlPayload);
  expect_frame(replies, MsgType::project_out, kMaxProjectPayload);
  expect_frame(replies, MsgType::bye, kMaxControlPayload);
}

TEST(NetFuzzTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::vector<std::uint8_t> session = valid_session_bytes();
  // Every prefix that cuts the session short must make the worker throw
  // (a disconnect can land on any byte boundary). Striding keeps the
  // whole-session sweep fast; the first 64 boundaries run exhaustively to
  // cover every cut inside the handshake header bytes.
  for (std::size_t cut = 0; cut < session.size() - 1;
       cut += (cut < 64 ? 1 : 97)) {
    MemStream wire(std::vector<std::uint8_t>(session.begin(),
                                             session.begin() + cut));
    EXPECT_THROW(serve_worker(wire), Error) << "cut at " << cut;
  }
}

TEST(NetFuzzTest, BitFlippedSessionNeverCrashes) {
  const std::vector<std::uint8_t> session = valid_session_bytes();
  Rng rng(123);
  std::size_t threw = 0;
  const std::size_t trials = 300;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> bytes = session;
    const std::size_t at = rng.index(bytes.size());
    bytes[at] ^= static_cast<std::uint8_t>(1u << rng.index(8));
    MemStream wire(std::move(bytes));
    try {
      serve_worker(wire);
    } catch (const Error&) {
      ++threw;  // the expected outcome for structural damage
    }
    // No other exception type, no crash, no hang: anything else fails the
    // test harness itself.
  }
  // Structural damage (framing, geometry, discriminators) must be
  // rejected loudly; flips landing inside f32 weight bytes are data
  // corruption the protocol cannot see and completes silently, so only a
  // loose lower bound is meaningful here (the header sweep below pins the
  // structural bytes exhaustively).
  EXPECT_GT(threw, 0u);
}

TEST(NetFuzzTest, HeaderBitFlipsAlwaysFailLoudly) {
  const std::vector<std::uint8_t> session = valid_session_bytes();
  // Flip every bit of the hello header's magic and length fields: each
  // one must be a clean error (magic mismatch, unknown type, cap breach,
  // or a downstream decode failure) — never an attempt to honor it.
  for (const std::size_t byte :
       {0u, 1u, 2u, 3u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 15u}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = session;
      bytes[byte] ^= static_cast<std::uint8_t>(1 << bit);
      MemStream wire(std::move(bytes));
      EXPECT_THROW(serve_worker(wire), Error)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(NetFuzzTest, OversizedShardLengthRejectedBeforeAllocation) {
  MemStream wire;
  send_frame(wire, MsgType::hello, encode_u32(kProtoVersion));
  // A load_shard header claiming 2^62 payload bytes: the cap check fires
  // on the header alone (a resize that large would abort the process, so
  // surviving this test proves no allocation was attempted).
  std::uint8_t header[16];
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t type = static_cast<std::uint32_t>(MsgType::load_shard);
  const std::uint64_t len = 1ull << 62;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type, 4);
  std::memcpy(header + 8, &len, 8);
  wire.write_all(header, sizeof header);
  MemStream session(wire.written());
  try {
    serve_worker(session);
    FAIL() << "oversized shard length must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
  }
}

TEST(NetFuzzTest, WorkerReportsErrorBeforeDying) {
  // Wrong protocol version: the worker must send error_report before
  // throwing, so the root sees the reason instead of a dead socket.
  MemStream wire;
  send_frame(wire, MsgType::hello, encode_u32(kProtoVersion + 7));
  MemStream session(wire.written());
  EXPECT_THROW(serve_worker(session), Error);
  MemStream replies(session.written());
  const Frame report = recv_frame(replies, kMaxControlPayload);
  EXPECT_EQ(report.type, MsgType::error_report);
  const std::string text(report.payload.begin(), report.payload.end());
  EXPECT_NE(text.find("version"), std::string::npos);
}

TEST(NetFuzzTest, ProtocolV2PeerRejectedAtHandshake) {
  // v3 project frames carry no op word, so a v2 peer would misparse every
  // projection: both ends refuse it at the handshake instead.
  MemStream to_worker;
  send_frame(to_worker, MsgType::hello, encode_u32(2));
  MemStream session(to_worker.written());
  EXPECT_THROW(serve_worker(session), Error);
  MemStream replies(session.written());
  EXPECT_EQ(recv_frame(replies, kMaxControlPayload).type,
            MsgType::error_report);

  HelloAck v2;
  v2.version = 2;
  MemStream to_root;
  send_frame(to_root, MsgType::hello_ack, encode_hello_ack(v2));
  std::vector<std::unique_ptr<Stream>> workers;
  workers.push_back(std::make_unique<MemStream>(to_root.written()));
  try {
    ShardedModel sharded(Model::init(fuzz_config(), 5), std::move(workers));
    FAIL() << "a protocol v2 worker must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("protocol version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetFuzzTest, CorruptedShardPayloadRejected) {
  const Model model = Model::init(fuzz_config(), 5);
  const std::vector<std::uint8_t> shard = shard_to_bytes(make_shard(model, 1, 2));
  // The leading bytes carry magic, version, kind, worker ids, and the
  // config — every bit of those is load-bearing for geometry validation.
  for (std::size_t at = 0; at < 16; ++at) {
    std::vector<std::uint8_t> bytes = shard;
    bytes[at] ^= 0x40;
    EXPECT_THROW(shard_from_bytes(bytes), Error) << "byte " << at;
  }
  // Truncations anywhere must throw (interior length prefixes re-checked
  // against the buffer end by BinaryReader).
  for (std::size_t cut : {0u, 1u, 15u, 16u, 100u}) {
    ASSERT_LT(cut, shard.size());
    EXPECT_THROW(
        shard_from_bytes(std::vector<std::uint8_t>(shard.begin(),
                                                   shard.end() - 1 - cut)),
        Error)
        << "truncated by " << cut + 1;
  }
}

TEST(NetFuzzTest, ProjectPayloadFuzz) {
  Matrix x(2, 16);
  const std::vector<std::uint8_t> good =
      encode_project(1, LinearKind::up_proj, x);
  // Truncations: every prefix fails.
  for (std::size_t cut = 0; cut < good.size(); cut += 3) {
    EXPECT_THROW(decode_project(std::vector<std::uint8_t>(
                     good.begin(), good.begin() + cut)),
                 Error);
  }
  // Oversized interior dimensions: claim a giant matrix in a small
  // payload — the division-form size check rejects it without allocating.
  std::vector<std::uint8_t> huge = good;
  const std::uint64_t big = 1ull << 58;
  // rows field of the matrix: after layer/kind (8) + trace context (16)
  std::memcpy(huge.data() + 24, &big, 8);
  EXPECT_THROW(decode_project(huge), Error);
}

TEST(NetFuzzTest, ProjectTraceContextFuzz) {
  Matrix x(2, 16);
  // Round trip with a trace context attached.
  const std::vector<std::uint8_t> traced =
      encode_project(1, LinearKind::up_proj, x, 0xabcdef12u, 0x77u);
  const ProjectRequest req = decode_project(traced);
  EXPECT_EQ(req.trace_id, 0xabcdef12u);
  EXPECT_EQ(req.parent_span_id, 0x77u);

  // Half-set trace context (id without parent and vice versa) is exactly
  // what a bit flip inside the trace fields produces — rejected, not
  // propagated into a nonsense trace.
  std::vector<std::uint8_t> half =
      encode_project(1, LinearKind::up_proj, x, 0, 0);
  const std::uint64_t one = 1;
  std::memcpy(half.data() + 8, &one, 8);  // trace_id = 1, parent = 0
  EXPECT_THROW(decode_project(half), Error);
  std::memcpy(half.data() + 8, &req.trace_id, 8);
  std::vector<std::uint8_t> half2 = half;
  std::uint64_t zero = 0;
  std::memcpy(half2.data() + 8, &zero, 8);
  std::memcpy(half2.data() + 16, &one, 8);  // parent = 1, trace_id = 0
  EXPECT_THROW(decode_project(half2), Error);

  // Truncations inside the trace fields fail cleanly.
  for (std::size_t cut = 9; cut <= 23; cut += 5) {
    EXPECT_THROW(decode_project(std::vector<std::uint8_t>(
                     traced.begin(), traced.begin() + cut)),
                 Error)
        << "cut at " << cut;
  }
}

TEST(NetFuzzTest, TraceSpanPayloadFuzz) {
  std::vector<WorkerSpan> spans(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].name = static_cast<SpanName>(i);
    spans[i].start_ns = 100 * i;
    spans[i].dur_ns = 10;
    spans[i].trace_id = 1;
    spans[i].span_id = i + 1;
    spans[i].parent_span_id = 1;
  }
  const std::vector<std::uint8_t> good = encode_trace_spans(spans);
  const std::vector<WorkerSpan> back = decode_trace_spans(good);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[2].name, SpanName::send);

  // Span-count cap: a count claiming more than kMaxTraceSpans is rejected
  // before any allocation sized by it.
  std::vector<std::uint8_t> oversized = good;
  const std::uint64_t big = static_cast<std::uint64_t>(kMaxTraceSpans) + 1;
  std::memcpy(oversized.data(), &big, 8);
  EXPECT_THROW(decode_trace_spans(oversized), Error);

  // Count/length mismatch in both directions.
  std::vector<std::uint8_t> wrong_count = good;
  const std::uint64_t two = 2;
  std::memcpy(wrong_count.data(), &two, 8);
  EXPECT_THROW(decode_trace_spans(wrong_count), Error);
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 7);
  EXPECT_THROW(decode_trace_spans(truncated), Error);

  // Unknown span-name discriminator.
  std::vector<std::uint8_t> bad_name = good;
  const std::uint32_t junk = 9;
  std::memcpy(bad_name.data() + 8, &junk, 4);  // first record's name code
  EXPECT_THROW(decode_trace_spans(bad_name), Error);
}

TEST(NetFuzzTest, WorkerShipsSpansOnTraceFlush) {
  // A traced session: the projection carries a trace context, so the
  // trace_flush must come back with that projection's recv/compute/send
  // spans.
  MemStream wire;
  send_frame(wire, MsgType::hello, encode_u32(kProtoVersion));
  const Model model = Model::init(fuzz_config(), 5);
  send_frame(wire, MsgType::load_shard,
             shard_to_bytes(make_shard(model, 0, 2)));
  Matrix x(1, fuzz_config().dim);
  send_frame(wire, MsgType::project,
             encode_project(0, LinearKind::q_proj, x,
                            /*trace_id=*/5, /*parent_span_id=*/5));
  send_frame(wire, MsgType::trace_flush, {});
  send_frame(wire, MsgType::shutdown, {});
  MemStream session(wire.written());
  EXPECT_NO_THROW(serve_worker(session));

  MemStream replies(session.written());
  expect_frame(replies, MsgType::hello_ack, kMaxControlPayload);
  expect_frame(replies, MsgType::shard_ready, kMaxControlPayload);
  expect_frame(replies, MsgType::project_out, kMaxProjectPayload);
  const Frame trace = recv_frame(replies, kMaxTracePayload);
  ASSERT_EQ(trace.type, MsgType::trace_data);
  const std::vector<WorkerSpan> spans = decode_trace_spans(trace.payload);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, SpanName::recv);
  EXPECT_EQ(spans[1].name, SpanName::compute);
  EXPECT_EQ(spans[2].name, SpanName::send);
  for (const WorkerSpan& s : spans) {
    EXPECT_EQ(s.trace_id, 5u);
    EXPECT_EQ(s.parent_span_id, 5u);
    EXPECT_NE(s.span_id, 0u);
  }
  expect_frame(replies, MsgType::bye, kMaxControlPayload);
}

TEST(NetFuzzTest, HelloAckLegacyAndMalformedSizes) {
  // A v1 peer's 4-byte ack still decodes (so the version mismatch error
  // is reported as such), any other size is malformed.
  HelloAck legacy = decode_hello_ack(encode_u32(1));
  EXPECT_EQ(legacy.version, 1u);
  EXPECT_EQ(legacy.clock_ns, 0u);

  HelloAck full;
  full.version = kProtoVersion;
  full.clock_ns = 123456789;
  const HelloAck back = decode_hello_ack(encode_hello_ack(full));
  EXPECT_EQ(back.version, kProtoVersion);
  EXPECT_EQ(back.clock_ns, 123456789u);

  for (const std::size_t n : {0u, 3u, 5u, 11u, 13u, 100u}) {
    EXPECT_THROW(decode_hello_ack(std::vector<std::uint8_t>(n, 0)), Error)
        << "size " << n;
  }
}

}  // namespace
}  // namespace aptq::net
