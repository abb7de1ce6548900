// lfrc::net protocol codec — round-trips for every message type, rejection
// of truncated and malformed frames (the decoder's close-the-connection
// contract), and a seeded pipelined-stream fuzz that re-chunks a valid
// frame sequence at random boundaries (the read()-returns-whatever-it-wants
// reality the server's connection buffer must survive).
//
// Determinism: the fuzz loops seed from util::global_seed(), so LFRC_SEED
// replays a failure exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/proto.hpp"
#include "util/random.hpp"

namespace {

using namespace lfrc;
using net::decode_result;

net::request make_request(net::op o) {
    net::request r;
    r.op = o;
    r.id = 0x1122334455667788ULL;
    r.key = 0xdeadbeefcafef00dULL;
    if (o == net::op::put || o == net::op::cas) {
        r.value = 0x0102030405060708ULL;
        r.ttl_ns = 42;
    }
    if (o == net::op::cas) r.expected_version = 7;
    return r;
}

constexpr net::op kAllOps[] = {net::op::get, net::op::put, net::op::erase,
                               net::op::cas, net::op::stat};

TEST(NetProto, RequestRoundTripEveryOp) {
    for (const net::op o : kAllOps) {
        const net::request in = make_request(o);
        std::vector<std::uint8_t> buf;
        net::encode_request(buf, in);
        ASSERT_EQ(buf.size(), 4u + net::request_payload_size(o));

        net::request out;
        std::size_t consumed = 0;
        ASSERT_EQ(net::decode_request(buf.data(), buf.size(), out, consumed),
                  decode_result::ok);
        EXPECT_EQ(consumed, buf.size());
        EXPECT_EQ(out.op, in.op);
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.key, in.key);
        EXPECT_EQ(out.value, in.value);
        EXPECT_EQ(out.expected_version, in.expected_version);
        EXPECT_EQ(out.ttl_ns, in.ttl_ns);
    }
}

TEST(NetProto, ResponseRoundTripEveryOp) {
    for (const net::op o : kAllOps) {
        net::response in;
        in.op = o;
        in.st = o == net::op::erase ? net::status::not_found : net::status::ok;
        in.id = 99;
        if (o == net::op::get) {
            in.value = 123456;
            in.version = 17;
        }
        if (o == net::op::stat) {
            in.stats = {1, 2, 3, 4, 5, 6, 7, 8};
        }
        std::vector<std::uint8_t> buf;
        net::encode_response(buf, in);
        ASSERT_EQ(buf.size(), 4u + net::response_payload_size(o));

        net::response out;
        std::size_t consumed = 0;
        ASSERT_EQ(net::decode_response(buf.data(), buf.size(), out, consumed),
                  decode_result::ok);
        EXPECT_EQ(consumed, buf.size());
        EXPECT_EQ(out.op, in.op);
        EXPECT_EQ(out.st, in.st);
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.value, in.value);
        EXPECT_EQ(out.version, in.version);
        EXPECT_EQ(out.stats.gets, in.stats.gets);
        EXPECT_EQ(out.stats.hits, in.stats.hits);
        EXPECT_EQ(out.stats.reclaimer_pending, in.stats.reclaimer_pending);
    }
}

// The exact bytes of a GET and a STAT response, written out by hand from
// the wire format in net/proto.hpp, appended behind bytes already in the
// buffer (the server encodes a whole tick into one write buffer).
TEST(NetProto, ResponseGoldenFrames) {
    net::response get;
    get.op = net::op::get;
    get.st = net::status::not_found;
    get.id = 0x1122334455667788ULL;
    get.value = 0x0102030405060708ULL;
    get.version = 0xa0b0c0d0e0f00010ULL;

    net::response stat;
    stat.op = net::op::stat;
    stat.id = 0x0000000000000102ULL;
    stat.stats = {1, 2, 3, 4, 5, 6, 0x1234, 0x8000000000000001ULL};

    std::vector<std::uint8_t> buf = {0xee, 0xff};
    net::encode_response(buf, get);
    net::encode_response(buf, stat);

    const std::vector<std::uint8_t> want = {
        0xee, 0xff,
        // GET: len 28, op 1, status 1, pad, id, value, version
        28, 0, 0, 0, 1, 1, 0, 0,
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        0x10, 0x00, 0xf0, 0xe0, 0xd0, 0xc0, 0xb0, 0xa0,
        // STAT: len 76, op 5, status 0, pad, id, eight counters
        76, 0, 0, 0, 5, 0, 0, 0,
        0x02, 0x01, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,
        4, 0, 0, 0, 0, 0, 0, 0,
        5, 0, 0, 0, 0, 0, 0, 0,
        6, 0, 0, 0, 0, 0, 0, 0,
        0x34, 0x12, 0, 0, 0, 0, 0, 0,
        0x01, 0, 0, 0, 0, 0, 0, 0x80,
    };
    EXPECT_EQ(buf, want);
}

// Every proper prefix of a valid frame is need_more — the decoder must
// neither reject a frame merely for being mid-flight nor claim bytes it
// has not validated.
TEST(NetProto, TruncatedFramesWantMoreBytes) {
    for (const net::op o : kAllOps) {
        std::vector<std::uint8_t> buf;
        net::encode_request(buf, make_request(o));
        for (std::size_t cut = 0; cut < buf.size(); ++cut) {
            net::request out;
            std::size_t consumed = 0;
            EXPECT_EQ(net::decode_request(buf.data(), cut, out, consumed),
                      decode_result::need_more)
                << "op " << int(o) << " prefix " << cut;
        }
    }
}

// A frame that can already be judged malformed from its first 5 bytes is
// rejected without waiting for the rest — a flood of "long frame coming,
// trust me" headers must not park garbage in connection buffers.
TEST(NetProto, EarlyRejectionOnPartialFrames) {
    // Valid length (20) but an opcode that doesn't exist.
    std::vector<std::uint8_t> buf = {20, 0, 0, 0, 0x7f};
    net::request out;
    std::size_t consumed = 0;
    EXPECT_EQ(net::decode_request(buf.data(), buf.size(), out, consumed),
              decode_result::bad_frame);

    // Real opcode whose exact size disagrees with the declared length.
    buf = {36, 0, 0, 0, static_cast<std::uint8_t>(net::op::get)};
    EXPECT_EQ(net::decode_request(buf.data(), buf.size(), out, consumed),
              decode_result::bad_frame);
}

TEST(NetProto, GarbageFramesAreRejected) {
    net::request rq;
    net::response rs;
    std::size_t consumed = 0;

    const auto bad_rq = [&](std::vector<std::uint8_t> buf) {
        return net::decode_request(buf.data(), buf.size(), rq, consumed) ==
               decode_result::bad_frame;
    };

    // Declared length below the minimum payload (op + id word missing).
    EXPECT_TRUE(bad_rq({4, 0, 0, 0, 1, 0, 0, 0}));
    // Declared length beyond the protocol maximum (a 16 MiB "frame").
    EXPECT_TRUE(bad_rq({0, 0, 0, 1, 1, 0, 0, 0}));
    // Opcode zero.
    {
        std::vector<std::uint8_t> buf;
        net::encode_request(buf, make_request(net::op::get));
        buf[4] = 0;
        EXPECT_TRUE(bad_rq(buf));
    }
    // Nonzero reserved bytes.
    {
        std::vector<std::uint8_t> buf;
        net::encode_request(buf, make_request(net::op::put));
        buf[5] = 0xcc;
        EXPECT_TRUE(bad_rq(buf));
    }
    // A response with an out-of-range status byte.
    {
        std::vector<std::uint8_t> buf;
        net::response in;
        in.op = net::op::put;
        net::encode_response(buf, in);
        buf[5] = 0x40;
        EXPECT_EQ(net::decode_response(buf.data(), buf.size(), rs, consumed),
                  decode_result::bad_frame);
    }
}

// Pipelined stream fuzz: many frames concatenated, delivered to a
// streaming decode loop in random-sized chunks. Every frame must come out
// exactly once, in order, regardless of where the chunk boundaries fall.
TEST(NetProto, PipelinedRandomChunkStream) {
    util::xoshiro256 rng(util::mix_seed(util::global_seed(), 0xe11, 1));
    for (int round = 0; round < 32; ++round) {
        std::vector<net::request> sent;
        std::vector<std::uint8_t> stream;
        const std::size_t frames = 1 + rng.below(64);
        for (std::size_t i = 0; i < frames; ++i) {
            net::request r = make_request(kAllOps[rng.below(5)]);
            r.id = rng();
            r.key = rng();
            sent.push_back(r);
            net::encode_request(stream, r);
        }

        std::vector<std::uint8_t> window;  // the "connection buffer"
        std::vector<net::request> got;
        std::size_t fed = 0;
        while (fed < stream.size() || !window.empty()) {
            if (fed < stream.size()) {
                const std::size_t chunk =
                    std::min<std::size_t>(1 + rng.below(23), stream.size() - fed);
                window.insert(window.end(), stream.begin() + fed,
                              stream.begin() + fed + chunk);
                fed += chunk;
            }
            std::size_t off = 0;
            for (;;) {
                net::request out;
                std::size_t consumed = 0;
                const auto r = net::decode_request(window.data() + off,
                                                   window.size() - off, out, consumed);
                ASSERT_NE(r, decode_result::bad_frame) << "round " << round;
                if (r == decode_result::need_more) break;
                off += consumed;
                got.push_back(out);
            }
            window.erase(window.begin(),
                         window.begin() + static_cast<std::ptrdiff_t>(off));
            if (fed == stream.size() && off == 0 && !window.empty()) {
                FAIL() << "decoder stalled with " << window.size() << " bytes left";
            }
        }

        ASSERT_EQ(got.size(), sent.size());
        for (std::size_t i = 0; i < sent.size(); ++i) {
            EXPECT_EQ(got[i].op, sent[i].op);
            EXPECT_EQ(got[i].id, sent[i].id);
            EXPECT_EQ(got[i].key, sent[i].key);
            EXPECT_EQ(got[i].value, sent[i].value);
        }
    }
}

// Random byte-noise must never crash or over-consume — it either decodes
// (some noise is a valid frame by chance: harmless) or rejects. The
// decoder's only obligations under garbage are memory safety and progress.
TEST(NetProto, GarbageNoiseFuzzNeverOverconsumes) {
    util::xoshiro256 rng(util::mix_seed(util::global_seed(), 0xe11, 2));
    for (int round = 0; round < 256; ++round) {
        std::vector<std::uint8_t> buf(rng.below(160));
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
        net::request out;
        std::size_t consumed = 0;
        const auto r = net::decode_request(buf.data(), buf.size(), out, consumed);
        if (r == decode_result::ok) {
            EXPECT_LE(consumed, buf.size());
            EXPECT_GE(consumed, 4u + 20u);
        }
    }
}

}  // namespace
