// lfrc_loadgen — open-loop tail-latency load generator for lfrc_kvd (E11).
//
//   lfrc_loadgen [--host=127.0.0.1] [--port=7117] [--threads=2]
//                [--connections=8] [--rate=20000] [--duration=2.0]
//                [--keyspace=16384] [--theta=0.99] [--get_percent=80]
//                [--erase_percent=5] [--cas_percent=5] [--seed=1]
//                [--json=BENCH_e11.json]
//
// Open loop, not closed loop: requests are dispatched on a fixed arrival
// schedule (rate/threads per thread, deterministic interarrival), and each
// request's latency is measured from its *intended* send time — not from
// when the socket accepted the bytes. A server that stalls therefore eats
// the queueing delay in its percentiles instead of silently slowing the
// generator down (the coordinated-omission trap closed-loop drivers fall
// into; see EXPERIMENTS.md E11).
//
// Each thread owns `connections/threads` pipelined connections and
// round-robins its schedule across them. Keys are zipf-ranked and
// scrambled through util::mixed_index — the same hot-set shape as the E9
// closed-loop driver, so the two experiments describe one workload.
// Determinism: per-thread RNGs derive from mix_seed(global_seed(),
// --seed, thread), so LFRC_SEED replays a run's op sequence exactly
// (arrival *times* are wall clock; the sequence is what's replayable).
//
// Exit status: 0 iff every connection survived and at least one response
// was received (CI's smoke asserts a non-empty histogram through it).
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/proto.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace lfrc;

struct gen_config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 7117;
    int threads = 2;
    int connections = 8;
    double rate = 20000.0;  ///< total offered ops/sec across all threads
    double duration = 2.0;
    std::uint64_t keyspace = 1ULL << 14;
    double theta = 0.99;
    int get_percent = 80;
    int erase_percent = 5;
    int cas_percent = 5;  ///< remainder goes to put
    std::uint64_t seed = 1;
    std::string json_path;
};

struct conn_state {
    int fd = -1;
    std::vector<std::uint8_t> out;  ///< encoded-but-unflushed requests
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;  ///< partial response bytes
    /// id -> intended send time (ns on the steady clock).
    std::unordered_map<std::uint64_t, std::uint64_t> outstanding;
    bool dead = false;
};

struct thread_result {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t send_errors = 0;
    util::latency_histogram latency;
    net::stat_counters server_stats{};  ///< thread 0 only (final STAT)
    bool got_stats = false;
    bool conn_failed = false;
};

/// Connect with retry: CI starts the server in the background and runs the
/// generator immediately, so the first connects may race the bind.
int connect_retry(const gen_config& cfg) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    for (;;) {
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* res = nullptr;
        const std::string port_str = std::to_string(cfg.port);
        if (::getaddrinfo(cfg.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
            res == nullptr) {
            return -1;
        }
        const int fd = ::socket(res->ai_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
        int rc = -1;
        if (fd >= 0) rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
        ::freeaddrinfo(res);
        if (rc == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return fd;
        }
        if (fd >= 0) ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
}

/// Flush as much of the connection's request backlog as the socket takes.
void flush_conn(conn_state& c, thread_result& r) {
    while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            c.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0 && errno == EINTR) continue;
        ++r.send_errors;
        c.dead = true;
        return;
    }
    c.out.clear();
    c.out_off = 0;
}

/// Read available responses; each completed frame resolves its request id
/// against the intended-send schedule and records end-to-end latency.
void read_conn(conn_state& c, thread_result& r) {
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            c.in.insert(c.in.end(), buf, buf + n);
            if (static_cast<std::size_t>(n) < sizeof buf) break;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        c.dead = true;  // peer closed (drain) or reset
        break;
    }
    std::size_t off = 0;
    const std::uint64_t now = util::steady_now_ns();
    for (;;) {
        net::response rsp;
        std::size_t consumed = 0;
        const auto dr = net::decode_response(c.in.data() + off, c.in.size() - off, rsp,
                                             consumed);
        if (dr != net::decode_result::ok) break;  // need_more; bad_frame can't
        off += consumed;                          // happen against our server
        if (rsp.op == net::op::stat) {
            r.server_stats = rsp.stats;
            r.got_stats = true;
            continue;
        }
        const auto it = c.outstanding.find(rsp.id);
        if (it != c.outstanding.end()) {
            r.latency.record(now - it->second + 1);
            c.outstanding.erase(it);
            ++r.received;
        }
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
}

void generator_thread(const gen_config& cfg, int t, thread_result& out) {
    const int total_threads = cfg.threads > 0 ? cfg.threads : 1;
    int conns_here = cfg.connections / total_threads;
    if (t < cfg.connections % total_threads) ++conns_here;
    if (conns_here == 0) return;

    std::vector<conn_state> conns(static_cast<std::size_t>(conns_here));
    std::vector<pollfd> pfds(static_cast<std::size_t>(conns_here));
    for (auto& c : conns) {
        c.fd = connect_retry(cfg);
        if (c.fd < 0) {
            out.conn_failed = true;
            for (auto& d : conns) {
                if (d.fd >= 0) ::close(d.fd);
            }
            return;
        }
    }

    util::xoshiro256 rng(util::mix_seed(util::global_seed(), cfg.seed,
                                        static_cast<std::uint64_t>(t)));
    const util::zipf_gen zipf(cfg.keyspace, cfg.theta);
    const double thread_rate = cfg.rate / static_cast<double>(total_threads);
    const auto interarrival_ns =
        static_cast<std::uint64_t>(1e9 / (thread_rate > 0 ? thread_rate : 1.0));

    const std::uint64_t start_ns = util::steady_now_ns();
    const std::uint64_t end_ns =
        start_ns + static_cast<std::uint64_t>(cfg.duration * 1e9);
    // Stagger thread schedules so arrival spikes don't align across threads.
    std::uint64_t next_due =
        start_ns + interarrival_ns * static_cast<std::uint64_t>(t + 1) /
                       static_cast<std::uint64_t>(total_threads);
    std::uint64_t next_id = 1;
    std::size_t rr = 0;  // round-robin connection cursor

    const auto alive = [&conns] {
        for (const auto& c : conns) {
            if (!c.dead) return true;
        }
        return false;
    };

    // --- Timed open-loop phase -------------------------------------------
    while (alive()) {
        std::uint64_t now = util::steady_now_ns();
        if (now >= end_ns) break;
        // Dispatch every request whose intended time has arrived — even if
        // we are behind, each keeps its *intended* timestamp (open loop).
        while (next_due <= now) {
            conn_state& c = conns[rr % conns.size()];
            ++rr;
            if (!c.dead) {
                net::request rq;
                rq.id = next_id++;
                rq.key = util::mixed_index(zipf(rng), cfg.keyspace);
                const std::uint64_t roll = rng.below(100);
                if (roll < static_cast<std::uint64_t>(cfg.get_percent)) {
                    rq.op = net::op::get;
                } else if (roll < static_cast<std::uint64_t>(cfg.get_percent +
                                                             cfg.erase_percent)) {
                    rq.op = net::op::erase;
                } else if (roll <
                           static_cast<std::uint64_t>(cfg.get_percent +
                                                      cfg.erase_percent +
                                                      cfg.cas_percent)) {
                    rq.op = net::op::cas;
                    rq.expected_version = 0;  // version-blind CAS: mostly fails,
                    rq.value = rng();         // which is the contention we want
                } else {
                    rq.op = net::op::put;
                    rq.value = rng();
                }
                net::encode_request(c.out, rq);
                c.outstanding.emplace(rq.id, next_due);
                ++out.sent;
            }
            next_due += interarrival_ns;
        }
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (!conns[i].dead) flush_conn(conns[i], out);
            pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
            pfds[i].events = POLLIN;
            pfds[i].revents = 0;
        }
        // Sleep until the next request is due, to the nanosecond: a wait
        // cut to whole milliseconds made every sub-ms wait a busy spin.
        // The 10-ms cap keeps the loop checking its end time when idle.
        now = util::steady_now_ns();
        const std::uint64_t wait_ns =
            std::min<std::uint64_t>(next_due > now ? next_due - now : 0, 10'000'000ULL);
        const timespec wait{0, static_cast<long>(wait_ns)};
        ::ppoll(pfds.data(), pfds.size(), &wait, nullptr);
        for (auto& c : conns) {
            if (!c.dead) read_conn(c, out);
        }
    }

    // --- Drain grace: collect stragglers, then ask for server stats ------
    if (conns[0].fd >= 0 && !conns[0].dead && t == 0) {
        net::request stat_rq;
        stat_rq.op = net::op::stat;
        stat_rq.id = next_id++;
        net::encode_request(conns[0].out, stat_rq);
    }
    const std::uint64_t grace_end = util::steady_now_ns() + 500'000'000ULL;
    while (alive() && util::steady_now_ns() < grace_end) {
        bool waiting = t == 0 && !out.got_stats;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (!conns[i].dead) {
                flush_conn(conns[i], out);
                if (!conns[i].outstanding.empty()) waiting = true;
            }
            pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
            pfds[i].events = POLLIN;
            pfds[i].revents = 0;
        }
        if (!waiting) break;
        ::poll(pfds.data(), pfds.size(), 20);
        for (auto& c : conns) {
            if (!c.dead) read_conn(c, out);
        }
    }
    for (auto& c : conns) {
        if (c.fd >= 0) ::close(c.fd);
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    util::cli_flags flags(argc, argv);
    gen_config cfg;
    cfg.host = flags.get_string("host", cfg.host);
    cfg.port = static_cast<std::uint16_t>(flags.get_u64("port", cfg.port));
    cfg.threads = static_cast<int>(flags.get_u64("threads", 2));
    cfg.connections = static_cast<int>(flags.get_u64("connections", 8));
    cfg.rate = flags.get_double("rate", cfg.rate);
    cfg.duration = flags.get_double("duration", cfg.duration);
    cfg.keyspace = flags.get_u64("keyspace", cfg.keyspace);
    cfg.theta = flags.get_double("theta", cfg.theta);
    cfg.get_percent = static_cast<int>(flags.get_u64("get_percent", 80));
    cfg.erase_percent = static_cast<int>(flags.get_u64("erase_percent", 5));
    cfg.cas_percent = static_cast<int>(flags.get_u64("cas_percent", 5));
    cfg.seed = flags.get_u64("seed", 1);
    cfg.json_path = flags.get_string("json", "");
    if (cfg.threads < 1) cfg.threads = 1;
    if (cfg.connections < cfg.threads) cfg.connections = cfg.threads;

    std::vector<thread_result> results(static_cast<std::size_t>(cfg.threads));
    const std::uint64_t t0 = util::steady_now_ns();
    {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(cfg.threads));
        for (int t = 0; t < cfg.threads; ++t) {
            pool.emplace_back(generator_thread, std::cref(cfg), t,
                              std::ref(results[static_cast<std::size_t>(t)]));
        }
        for (auto& th : pool) th.join();
    }
    const double elapsed = static_cast<double>(util::steady_now_ns() - t0) / 1e9;

    thread_result total;
    for (const auto& r : results) {
        total.sent += r.sent;
        total.received += r.received;
        total.send_errors += r.send_errors;
        total.latency.merge(r.latency);
        if (r.got_stats) {
            total.server_stats = r.server_stats;
            total.got_stats = true;
        }
        total.conn_failed = total.conn_failed || r.conn_failed;
    }

    if (total.conn_failed) {
        std::fprintf(stderr, "lfrc_loadgen: could not connect to %s:%u\n",
                     cfg.host.c_str(), unsigned{cfg.port});
        return 2;
    }

    const double achieved =
        cfg.duration > 0 ? static_cast<double>(total.received) / cfg.duration : 0.0;
    const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
    const std::uint64_t p50 = total.latency.percentile(0.50);
    const std::uint64_t p99 = total.latency.percentile(0.99);
    const std::uint64_t p999 = total.latency.percentile(0.999);

    std::printf("lfrc_loadgen: sent=%llu received=%llu (%.0f/s offered, %.0f/s achieved)\n"
                "  latency p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus mean=%.1fus\n",
                static_cast<unsigned long long>(total.sent),
                static_cast<unsigned long long>(total.received), cfg.rate, achieved,
                us(p50), us(p99), us(p999), us(total.latency.max()),
                total.latency.mean() / 1e3);
    if (total.got_stats) {
        std::printf("  server: gets=%llu hits=%llu puts=%llu erases=%llu cas_ok=%llu "
                    "cas_fail=%llu expired=%llu reclaimer_pending=%llu\n",
                    static_cast<unsigned long long>(total.server_stats.gets),
                    static_cast<unsigned long long>(total.server_stats.hits),
                    static_cast<unsigned long long>(total.server_stats.puts),
                    static_cast<unsigned long long>(total.server_stats.erases),
                    static_cast<unsigned long long>(total.server_stats.cas_ok),
                    static_cast<unsigned long long>(total.server_stats.cas_fail),
                    static_cast<unsigned long long>(total.server_stats.expired),
                    static_cast<unsigned long long>(total.server_stats.reclaimer_pending));
    }

    if (!cfg.json_path.empty()) {
        std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "lfrc_loadgen: cannot open %s for writing\n",
                         cfg.json_path.c_str());
            return 2;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"e11_net_tail_latency\",\n"
            "  \"open_loop\": true,\n"
            "  \"threads\": %d,\n  \"connections\": %d,\n"
            "  \"rate_offered\": %.1f,\n  \"rate_achieved\": %.1f,\n"
            "  \"duration_s\": %.3f,\n  \"elapsed_s\": %.3f,\n"
            "  \"keyspace\": %llu,\n  \"theta\": %.3f,\n"
            "  \"mix\": {\"get\": %d, \"erase\": %d, \"cas\": %d},\n"
            "  \"sent\": %llu,\n  \"received\": %llu,\n  \"send_errors\": %llu,\n"
            "  \"latency_us\": {\"p50\": %.1f, \"p99\": %.1f, \"p999\": %.1f, "
            "\"max\": %.1f, \"mean\": %.1f},\n",
            cfg.threads, cfg.connections, cfg.rate, achieved, cfg.duration, elapsed,
            static_cast<unsigned long long>(cfg.keyspace), cfg.theta, cfg.get_percent,
            cfg.erase_percent, cfg.cas_percent,
            static_cast<unsigned long long>(total.sent),
            static_cast<unsigned long long>(total.received),
            static_cast<unsigned long long>(total.send_errors), us(p50), us(p99),
            us(p999), us(total.latency.max()), total.latency.mean() / 1e3);
        std::fprintf(
            f,
            "  \"server\": {\"gets\": %llu, \"hits\": %llu, \"puts\": %llu, "
            "\"erases\": %llu, \"cas_ok\": %llu, \"cas_fail\": %llu, "
            "\"expired\": %llu, \"reclaimer_pending\": %llu}\n}\n",
            static_cast<unsigned long long>(total.server_stats.gets),
            static_cast<unsigned long long>(total.server_stats.hits),
            static_cast<unsigned long long>(total.server_stats.puts),
            static_cast<unsigned long long>(total.server_stats.erases),
            static_cast<unsigned long long>(total.server_stats.cas_ok),
            static_cast<unsigned long long>(total.server_stats.cas_fail),
            static_cast<unsigned long long>(total.server_stats.expired),
            static_cast<unsigned long long>(total.server_stats.reclaimer_pending));
        std::fclose(f);
        std::printf("wrote %s\n", cfg.json_path.c_str());
    }

    return total.received > 0 ? 0 : 1;
}
