// lfrc::net protocol — the pipelined length-prefixed binary framing shared
// by the server (lfrc_kvd) and the open-loop load generator (lfrc_loadgen).
//
// Design constraints, in order:
//   pipelining   a client may have any number of requests in flight on one
//                connection; every request carries a 64-bit id the server
//                echoes, so responses need no ordering guarantee beyond
//                per-connection FIFO (which TCP gives us anyway) and the
//                load generator can time each request individually.
//   rejection    the decoder never trusts a byte: frames carry an exact
//                per-opcode length, opcodes and statuses are validated, and
//                anything malformed is `bad_frame` — the caller's contract
//                is to close the connection (tests/test_net_proto.cpp fuzzes
//                this; the server enforces the close).
//   zero copies  encode appends to a caller-owned byte vector (the
//                connection's tick write buffer); decode reads in place from
//                the connection's read buffer and reports bytes consumed.
//
// Wire format (all integers little-endian):
//
//   frame    := u32 payload_len ; payload
//   request  := u8 op ; u8[3] zero ; u64 id ; u64 key ; op-extras
//                 put : u64 value ; u64 ttl_ns
//                 cas : u64 expected_version ; u64 value ; u64 ttl_ns
//                 get / erase / stat : (none)
//   response := u8 op ; u8 status ; u8[2] zero ; u64 id ; op-extras
//                 get  : u64 value ; u64 version     (miss: value 0, the
//                                                     witnessed version)
//                 stat : u64 x 8 (gets hits puts erases cas_ok cas_fail
//                                 expired reclaimer_pending)
//                 put / erase / cas : (none)
//
// Lengths are exact: a frame whose payload_len disagrees with its opcode's
// size is malformed even if longer — "ignore trailing junk" is how protocol
// confusion bugs ship.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lfrc::net {

enum class op : std::uint8_t {
    get = 1,
    put = 2,
    erase = 3,
    cas = 4,
    stat = 5,
};

enum class status : std::uint8_t {
    ok = 0,
    not_found = 1,
    cas_fail = 2,
    bad_request = 3,
};

/// Frame length prefix plus the largest legal payload (a stat response).
/// Anything claiming more is malformed, so a hostile peer cannot make a
/// connection buffer an arbitrarily large "frame in progress".
inline constexpr std::uint32_t max_payload_bytes = 128;

struct request {
    net::op op = net::op::get;
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    std::uint64_t value = 0;             ///< put / cas
    std::uint64_t expected_version = 0;  ///< cas
    std::uint64_t ttl_ns = 0;            ///< put / cas; 0 = never expires
};

/// The stat response payload: the store's aggregated counters plus the
/// reclamation backlog — what the CI smoke and the load generator's final
/// report read off a live server.
struct stat_counters {
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t puts = 0;
    std::uint64_t erases = 0;
    std::uint64_t cas_ok = 0;
    std::uint64_t cas_fail = 0;
    std::uint64_t expired = 0;
    std::uint64_t reclaimer_pending = 0;
};

struct response {
    net::op op = net::op::get;
    net::status st = net::status::ok;
    std::uint64_t id = 0;
    std::uint64_t value = 0;    ///< get
    std::uint64_t version = 0;  ///< get (valid on miss too: the witnessed version)
    stat_counters stats{};      ///< stat
};

enum class decode_result {
    need_more,  ///< valid so far; wait for more bytes
    ok,         ///< one frame decoded; `consumed` bytes eaten
    bad_frame,  ///< malformed; close the connection
};

namespace wire {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Store `v` little-endian at `p`: one unaligned word store on a
/// little-endian host.
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

}  // namespace wire

/// Exact request payload size for `o`; 0 for an invalid opcode.
inline std::uint32_t request_payload_size(op o) noexcept {
    switch (o) {
        case op::get:
        case op::erase:
        case op::stat:
            return 4 + 8 + 8;
        case op::put:
            return 4 + 8 + 8 + 16;
        case op::cas:
            return 4 + 8 + 8 + 24;
    }
    return 0;
}

/// Exact response payload size for `o`; 0 for an invalid opcode.
inline std::uint32_t response_payload_size(op o) noexcept {
    switch (o) {
        case op::get:
            return 4 + 8 + 16;
        case op::put:
        case op::erase:
        case op::cas:
            return 4 + 8;
        case op::stat:
            return 4 + 8 + 64;
    }
    return 0;
}

inline void encode_request(std::vector<std::uint8_t>& out, const request& r) {
    wire::put_u32(out, request_payload_size(r.op));
    out.push_back(static_cast<std::uint8_t>(r.op));
    out.push_back(0);
    out.push_back(0);
    out.push_back(0);
    wire::put_u64(out, r.id);
    wire::put_u64(out, r.key);
    if (r.op == op::put) {
        wire::put_u64(out, r.value);
        wire::put_u64(out, r.ttl_ns);
    } else if (r.op == op::cas) {
        wire::put_u64(out, r.expected_version);
        wire::put_u64(out, r.value);
        wire::put_u64(out, r.ttl_ns);
    }
}

/// The server's per-request hot path: one resize, then whole-word stores
/// into the frame (the length prefix, opcode, status and padding are one
/// word). An invalid opcode still gets its header and id, behind a zero
/// length that every decoder rejects.
inline void encode_response(std::vector<std::uint8_t>& out, const response& r) {
    const std::uint32_t len = response_payload_size(r.op);
    const std::size_t at = out.size();
    out.resize(at + 4 + std::max<std::uint32_t>(len, 4 + 8));
    std::uint8_t* p = out.data() + at;
    wire::store_u64(p, len | (std::uint64_t{static_cast<std::uint8_t>(r.op)} << 32) |
                           (std::uint64_t{static_cast<std::uint8_t>(r.st)} << 40));
    wire::store_u64(p + 8, r.id);
    if (r.op == op::get) {
        wire::store_u64(p + 16, r.value);
        wire::store_u64(p + 24, r.version);
    } else if (r.op == op::stat) {
        const std::uint64_t words[] = {r.stats.gets,     r.stats.hits,   r.stats.puts,
                                       r.stats.erases,   r.stats.cas_ok, r.stats.cas_fail,
                                       r.stats.expired,  r.stats.reclaimer_pending};
        for (std::size_t i = 0; i < 8; ++i) wire::store_u64(p + 16 + 8 * i, words[i]);
    }
}

namespace detail {

/// Common frame validation: header present, length sane, full payload
/// buffered, opcode legal, length exact for the opcode. On `ok`, `payload`
/// points just past the opcode-bearing header word and `consumed` covers the
/// whole frame.
template <typename SizeFn>
inline decode_result frame_check(const std::uint8_t* data, std::size_t size,
                                 SizeFn payload_size_of, const std::uint8_t*& payload,
                                 std::uint8_t& opcode, std::size_t& consumed) noexcept {
    if (size < 4) return decode_result::need_more;
    const std::uint32_t len = wire::get_u32(data);
    if (len < 4 + 8 || len > max_payload_bytes) return decode_result::bad_frame;
    if (size < 4 + len) {
        // The declared length is within bounds; we can only judge the
        // opcode/length pairing once the opcode byte is here.
        if (size >= 5) {
            const std::uint32_t expect = payload_size_of(static_cast<op>(data[4]));
            if (expect == 0 || expect != len) return decode_result::bad_frame;
        }
        return decode_result::need_more;
    }
    opcode = data[4];
    const std::uint32_t expect = payload_size_of(static_cast<op>(opcode));
    if (expect == 0 || expect != len) return decode_result::bad_frame;
    payload = data + 4;
    consumed = 4 + len;
    return decode_result::ok;
}

}  // namespace detail

/// Decode one request frame from [data, data+size). On `ok`, `out` is
/// filled and `consumed` reports the frame's total length.
inline decode_result decode_request(const std::uint8_t* data, std::size_t size,
                                    request& out, std::size_t& consumed) noexcept {
    const std::uint8_t* p = nullptr;
    std::uint8_t opcode = 0;
    const decode_result r =
        detail::frame_check(data, size, &request_payload_size, p, opcode, consumed);
    if (r != decode_result::ok) return r;
    if (p[1] != 0 || p[2] != 0 || p[3] != 0) return decode_result::bad_frame;
    out.op = static_cast<op>(opcode);
    out.id = wire::get_u64(p + 4);
    out.key = wire::get_u64(p + 12);
    out.value = 0;
    out.expected_version = 0;
    out.ttl_ns = 0;
    if (out.op == op::put) {
        out.value = wire::get_u64(p + 20);
        out.ttl_ns = wire::get_u64(p + 28);
    } else if (out.op == op::cas) {
        out.expected_version = wire::get_u64(p + 20);
        out.value = wire::get_u64(p + 28);
        out.ttl_ns = wire::get_u64(p + 36);
    }
    return decode_result::ok;
}

/// Decode one response frame; mirror of decode_request.
inline decode_result decode_response(const std::uint8_t* data, std::size_t size,
                                     response& out, std::size_t& consumed) noexcept {
    const std::uint8_t* p = nullptr;
    std::uint8_t opcode = 0;
    const decode_result r =
        detail::frame_check(data, size, &response_payload_size, p, opcode, consumed);
    if (r != decode_result::ok) return r;
    if (p[1] > static_cast<std::uint8_t>(status::bad_request) || p[2] != 0 || p[3] != 0) {
        return decode_result::bad_frame;
    }
    out.op = static_cast<op>(opcode);
    out.st = static_cast<status>(p[1]);
    out.id = wire::get_u64(p + 4);
    out.value = 0;
    out.version = 0;
    out.stats = {};
    if (out.op == op::get) {
        out.value = wire::get_u64(p + 12);
        out.version = wire::get_u64(p + 20);
    } else if (out.op == op::stat) {
        out.stats.gets = wire::get_u64(p + 12);
        out.stats.hits = wire::get_u64(p + 20);
        out.stats.puts = wire::get_u64(p + 28);
        out.stats.erases = wire::get_u64(p + 36);
        out.stats.cas_ok = wire::get_u64(p + 44);
        out.stats.cas_fail = wire::get_u64(p + 52);
        out.stats.expired = wire::get_u64(p + 60);
        out.stats.reclaimer_pending = wire::get_u64(p + 68);
    }
    return decode_result::ok;
}

}  // namespace lfrc::net
