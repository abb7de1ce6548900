// lfrc::net::kv_server — the sharded epoll front-end for store::kv_store.
//
// Topology: N worker threads, each owning (a) one SO_REUSEPORT listening
// socket bound to the same port — the kernel spreads incoming connections
// across the listeners, our accept-side round-robin — and (b) one epoll
// instance over the connections it accepted. A connection lives and dies on
// one worker: its requests are parsed, executed and answered on that
// worker's thread, which holds exactly one thread_registry slot. All
// slot-keyed reclamation state (epoch announcements, deferred delta tables,
// MCAS descriptors) therefore stays core-local for a connection's whole
// life, and a request never crosses workers.
//
// Event-loop tick (per worker):
//   1. epoll_wait; accept new connections, read every readable socket into
//      its connection buffer.
//   2. One drain_gate batch wrapping ONE policy guard for the whole tick:
//      parse + execute every complete frame buffered across all
//      connections, appending responses to per-connection write buffers.
//      The outer guard means a tick of B requests pays one pin/flush
//      (epoch announce, deferred table flush) instead of B — the nested
//      per-op guards inside kv_store enter/exit on a depth counter.
//   3. One writev per connection with output: the carried-over unflushed
//      tail (socket was full last tick) plus this tick's responses — two
//      iovecs, one syscall.
//
// Robustness (the parts load tests actually hit):
//   * a frame that fails to decode closes the connection — no resync
//     guessing on a binary protocol;
//   * per-connection buffer caps: unparsed input over the cap (client
//     floods without completing frames) or unflushed output over the cap
//     (client stops reading) disconnects the peer — memory per connection
//     is bounded no matter what arrives;
//   * EPIPE/ECONNRESET on read or write close the connection quietly;
//     SIGPIPE is ignored process-wide in run();
//   * partial writes keep their tail in the connection's pending buffer and
//     arm EPOLLOUT — response bytes are never dropped or reordered.
//
// Graceful drain (run() after request_shutdown()/SIGTERM):
//   stop admitting batches (drain_gate), wait for in-flight batches to
//   retire, let every worker close its listener, flush what it owes (with a
//   bounded linger), and exit; join workers; clear their registry slots
//   (reclaim::epoch_domain::clear_slots — the joined-worker idiom); then
//   kv_store::drain() with exclusive ownership, asserting zero residual.
//   The ordering lives in drain_gate and is model-checked by
//   tests/sim/sim_net_drain_test.cpp.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/drain_gate.hpp"
#include "net/proto.hpp"
#include "reclaim/epoch.hpp"
#include "store/store.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_registry.hpp"

namespace lfrc::net {

struct server_config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 7117;
    int workers = 2;
};

/// Counters aggregated across workers at shutdown (approximate during the
/// run; exact after join).
struct server_totals {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t requests = 0;
    std::uint64_t bad_frames = 0;
    std::uint64_t overflow_closes = 0;  ///< buffer-cap disconnects
    std::uint64_t io_error_closes = 0;  ///< EPIPE/ECONNRESET/read errors
};

template <typename Policy>
class kv_server {
  public:
    using store_t = store::kv_store<Policy, std::uint64_t, std::uint64_t>;
    using policy_t = Policy;

    // The tick-wide outer guard nests per-op guards inside it; hp's
    // thread-global hazard slots forbid nested guards (and hp is exactly
    // the policy with has_lazy_traverse == false).
    static_assert(policy_t::has_lazy_traverse,
                  "kv_server holds an outer guard across each event-loop tick; "
                  "policies whose guards cannot nest (hp) are not supported");

    /// Per-connection cap on unparsed input AND unflushed output. Crossing
    /// either disconnects the peer (flood / slow-reader protection).
    static constexpr std::size_t max_conn_buffer = std::size_t{1} << 20;
    /// Per-worker connection cap; accepts beyond it are closed on arrival.
    static constexpr std::size_t max_connections = 1024;
    /// epoll_wait timeout: the latency floor for noticing a drain request;
    /// irrelevant for request latency (events return immediately).
    static constexpr int tick_timeout_ms = 10;

    /// The store starts at its default geometry (8 shards × 64 buckets) and
    /// grows its index online as keys arrive.
    explicit kv_server(server_config cfg)
        : cfg_(std::move(cfg)), store_(typename store_t::config{}) {
        if (cfg_.workers < 1) cfg_.workers = 1;
    }

    /// Ask run() to begin the graceful drain. Async-signal-safe.
    void request_shutdown() noexcept {
        shutdown_.store(true, std::memory_order_release);  // lfrc-lint: order(server-shutdown-flag)
    }

    /// Serve until request_shutdown() (or *external_stop — the binary's
    /// signal flag) is observed, then drain. Returns 0 iff every worker
    /// exited cleanly and the store drained to zero residual.
    int run(const std::atomic<bool>* external_stop = nullptr) {
        std::signal(SIGPIPE, SIG_IGN);

        std::vector<int> listeners;
        listeners.reserve(static_cast<std::size_t>(cfg_.workers));
        for (int w = 0; w < cfg_.workers; ++w) {
            const int fd = make_listener();
            if (fd < 0) {
                std::fprintf(stderr, "lfrc_kvd: cannot listen on %s:%u: %s\n",
                             cfg_.host.c_str(), unsigned{cfg_.port}, std::strerror(errno));
                for (const int l : listeners) ::close(l);
                return 2;
            }
            listeners.push_back(fd);
        }
        std::printf("lfrc_kvd: listening on %s:%u (%d workers, policy %s)\n",
                    cfg_.host.c_str(), unsigned{cfg_.port}, cfg_.workers,
                    store_t::policy_name());
        std::fflush(stdout);

        worker_slots_.assign(static_cast<std::size_t>(cfg_.workers), 0);
        worker_totals_.assign(static_cast<std::size_t>(cfg_.workers), server_totals{});
        worker_failed_.store(false, std::memory_order_relaxed);  // lfrc-lint: order(worker-failed-flag)
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(cfg_.workers));
        for (int w = 0; w < cfg_.workers; ++w) {
            threads.emplace_back([this, w, fd = listeners[static_cast<std::size_t>(w)]] {
                worker_main(w, fd);
            });
        }

        while (!shutdown_.load(std::memory_order_acquire) &&  // lfrc-lint: order(server-shutdown-flag)
               !(external_stop != nullptr &&
                 external_stop->load(std::memory_order_acquire)) &&  // lfrc-lint: order(external-stop-flag)
               !worker_failed_.load(std::memory_order_acquire)) {  // lfrc-lint: order(worker-failed-flag)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }

        // Drain: forbid new batches, wait out in-flight ones, then let the
        // workers run their flush/close epilogue and join them.
        gate_.await_quiescent();
        for (auto& t : threads) t.join();
        reclaim::epoch_domain::global().clear_slots(worker_slots_.data(),
                                                    worker_slots_.size());
        residual_ = store_.drain();

        const server_totals t = totals();
        std::printf("lfrc_kvd: drained. accepted=%llu requests=%llu bad_frames=%llu "
                    "overflow_closes=%llu io_error_closes=%llu residual=%llu\n",
                    static_cast<unsigned long long>(t.accepted),
                    static_cast<unsigned long long>(t.requests),
                    static_cast<unsigned long long>(t.bad_frames),
                    static_cast<unsigned long long>(t.overflow_closes),
                    static_cast<unsigned long long>(t.io_error_closes),
                    static_cast<unsigned long long>(residual_));
        std::fflush(stdout);
        if (worker_failed_.load(std::memory_order_acquire)) return 2;  // lfrc-lint: order(worker-failed-flag)
        return residual_ == 0 ? 0 : 1;
    }

    store_t& store() noexcept { return store_; }
    std::uint64_t residual() const noexcept { return residual_; }

    server_totals totals() const {
        server_totals t;
        for (const auto& w : worker_totals_) {
            t.accepted += w.accepted;
            t.closed += w.closed;
            t.requests += w.requests;
            t.bad_frames += w.bad_frames;
            t.overflow_closes += w.overflow_closes;
            t.io_error_closes += w.io_error_closes;
        }
        return t;
    }

  private:
    struct connection {
        int fd = -1;
        std::vector<std::uint8_t> in;       ///< unparsed request bytes
        std::size_t in_off = 0;             ///< parse cursor into `in`
        std::vector<std::uint8_t> pending;  ///< unflushed output (previous ticks)
        std::size_t pending_off = 0;
        std::vector<std::uint8_t> out;      ///< responses generated this tick
        bool want_write = false;            ///< EPOLLOUT armed
        bool dead = false;
        bool peer_closed = false;
    };

    int make_listener() const {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (fd < 0) return -1;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
            ::close(fd);
            return -1;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg_.port);
        if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
            ::close(fd);
            errno = EINVAL;
            return -1;
        }
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
            ::listen(fd, 256) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    static void set_epoll(int ep, connection& c) {
        epoll_event ev{};
        ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
        ev.data.fd = c.fd;
        ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    }

    /// Drain the socket into the connection's input buffer. Marks the
    /// connection dead on error or buffer-cap overflow.
    void read_into(connection& c, server_totals& t) const {
        std::uint8_t buf[4096];
        for (;;) {
            const ssize_t n = ::read(c.fd, buf, sizeof buf);
            if (n > 0) {
                c.in.insert(c.in.end(), buf, buf + n);
                if (c.in.size() - c.in_off > max_conn_buffer) {
                    ++t.overflow_closes;
                    c.dead = true;
                    return;
                }
                if (static_cast<std::size_t>(n) < sizeof buf) return;
                continue;
            }
            if (n == 0) {
                c.peer_closed = true;  // flush what we owe, then close
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            ++t.io_error_closes;
            c.dead = true;
            return;
        }
    }

    /// Execute one decoded request against the store, appending the
    /// response frame. Runs inside the tick's gate batch + outer guard.
    void execute(const request& rq, std::vector<std::uint8_t>& out_buf,
                 std::uint64_t now_ns) {
        response rsp;
        rsp.op = rq.op;
        rsp.id = rq.id;
        rsp.st = status::ok;
        switch (rq.op) {
            case op::get: {
                const auto v = store_.get_versioned(rq.key, now_ns);
                rsp.st = v.found ? status::ok : status::not_found;
                rsp.value = v.found ? v.value : 0;
                rsp.version = v.version;
                break;
            }
            case op::put:
                store_.put(rq.key, rq.value, rq.ttl_ns, now_ns);
                break;
            case op::erase:
                rsp.st = store_.erase(rq.key, now_ns) ? status::ok : status::not_found;
                break;
            case op::cas:
                rsp.st = store_.cas(rq.key, rq.expected_version, rq.value, rq.ttl_ns,
                                    now_ns)
                             ? status::ok
                             : status::cas_fail;
                break;
            case op::stat: {
                const store::store_stats s = store_.stats();
                rsp.stats.gets = s.gets;
                rsp.stats.hits = s.hits;
                rsp.stats.puts = s.puts;
                rsp.stats.erases = s.erases;
                rsp.stats.cas_ok = s.cas_ok;
                rsp.stats.cas_fail = s.cas_fail;
                rsp.stats.expired = s.expired;
                rsp.stats.reclaimer_pending = store_.reclaimer_pending();
                break;
            }
        }
        encode_response(out_buf, rsp);
    }

    /// Parse and execute every complete frame in the connection's input.
    void process_input(connection& c, std::uint64_t now_ns, server_totals& t) {
        while (!c.dead) {
            request rq;
            std::size_t consumed = 0;
            const decode_result r = decode_request(c.in.data() + c.in_off,
                                                   c.in.size() - c.in_off, rq, consumed);
            if (r == decode_result::need_more) break;
            if (r == decode_result::bad_frame) {
                ++t.bad_frames;
                c.dead = true;
                break;
            }
            c.in_off += consumed;
            ++t.requests;
            execute(rq, c.out, now_ns);
        }
        // Compact: frames are tiny, so the unparsed tail is at most one
        // partial frame plus whatever a flood sent — move it to the front.
        if (c.in_off == c.in.size()) {
            c.in.clear();
            c.in_off = 0;
        } else if (c.in_off > 0) {
            c.in.erase(c.in.begin(),
                       c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
            c.in_off = 0;
        }
    }

    /// One writev per tick per connection: the carried-over pending tail
    /// plus this tick's responses. Short writes park the remainder in
    /// `pending` and arm EPOLLOUT; write errors kill the connection.
    void flush(int ep, connection& c, server_totals& t) {
        for (;;) {
            iovec iov[2];
            int cnt = 0;
            if (c.pending_off < c.pending.size()) {
                iov[cnt].iov_base = c.pending.data() + c.pending_off;
                iov[cnt].iov_len = c.pending.size() - c.pending_off;
                ++cnt;
            }
            if (!c.out.empty()) {
                iov[cnt].iov_base = c.out.data();
                iov[cnt].iov_len = c.out.size();
                ++cnt;
            }
            if (cnt == 0) return;
            const ssize_t n = ::writev(c.fd, iov, cnt);
            if (n < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    carry_unwritten(c, 0);
                    arm_write(ep, c, t);
                    return;
                }
                // EPIPE / ECONNRESET / anything else: peer is gone.
                ++t.io_error_closes;
                c.dead = true;
                return;
            }
            std::size_t done = static_cast<std::size_t>(n);
            const std::size_t pend = c.pending.size() - c.pending_off;
            if (done >= pend) {
                done -= pend;
                c.pending.clear();
                c.pending_off = 0;
                if (done == c.out.size()) {
                    c.out.clear();
                    if (c.want_write) {
                        c.want_write = false;
                        set_epoll(ep, c);
                    }
                    return;
                }
                carry_unwritten(c, done);
            } else {
                c.pending_off += done;
                carry_unwritten(c, 0);
            }
            arm_write(ep, c, t);
            return;
        }
    }

    /// Move out[written..] onto pending so the next writev resumes exactly
    /// where the socket stopped.
    static void carry_unwritten(connection& c, std::size_t written) {
        if (written < c.out.size()) {
            c.pending.insert(c.pending.end(), c.out.begin() +
                                                  static_cast<std::ptrdiff_t>(written),
                             c.out.end());
        }
        c.out.clear();
    }

    void arm_write(int ep, connection& c, server_totals& t) {
        if (c.pending.size() - c.pending_off > max_conn_buffer) {
            ++t.overflow_closes;  // peer stopped reading; cut it loose
            c.dead = true;
            return;
        }
        if (!c.want_write) {
            c.want_write = true;
            set_epoll(ep, c);
        }
    }

    void worker_main(int w, int listen_fd) {
        worker_slots_[static_cast<std::size_t>(w)] =
            util::thread_registry::instance().slot();
        server_totals& t = worker_totals_[static_cast<std::size_t>(w)];

        const int ep = ::epoll_create1(EPOLL_CLOEXEC);
        if (ep < 0) {
            ::close(listen_fd);
            worker_failed_.store(true, std::memory_order_release);  // lfrc-lint: order(worker-failed-flag)
            return;
        }
        {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = listen_fd;
            ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd, &ev);
        }

        std::unordered_map<int, connection> conns;
        std::vector<epoll_event> events(256);
        std::vector<int> touched;  // fds with new input this tick
        bool accepting = true;

        for (;;) {
            const bool draining = gate_.draining();
            if (draining && accepting) {
                ::epoll_ctl(ep, EPOLL_CTL_DEL, listen_fd, nullptr);
                ::close(listen_fd);
                accepting = false;
            }

            const int nev = ::epoll_wait(ep, events.data(),
                                         static_cast<int>(events.size()),
                                         tick_timeout_ms);
            touched.clear();
            for (int i = 0; i < nev; ++i) {
                const int fd = events[static_cast<std::size_t>(i)].data.fd;
                const std::uint32_t flags = events[static_cast<std::size_t>(i)].events;
                if (accepting && fd == listen_fd) {
                    accept_some(ep, listen_fd, conns, t);
                    continue;
                }
                const auto it = conns.find(fd);
                if (it == conns.end()) continue;
                connection& c = it->second;
                if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
                    ++t.io_error_closes;
                    c.dead = true;
                    continue;
                }
                if ((flags & EPOLLIN) != 0) {
                    read_into(c, t);
                    if (!c.dead && c.in.size() > c.in_off) touched.push_back(fd);
                }
                // EPOLLOUT falls through to the common flush below.
            }

            // Process phase: one gate batch, one outer guard, whole tick.
            if (!touched.empty()) {
                if (gate_.begin_op()) {
                    typename policy_t::guard tick_guard(store_.policy());
                    const std::uint64_t now_ns = util::steady_now_ns();
                    for (const int fd : touched) {
                        const auto it = conns.find(fd);
                        if (it != conns.end()) process_input(it->second, now_ns, t);
                    }
                    gate_.end_op();
                }
                // begin_op false: draining — buffered requests are dropped;
                // only already-generated responses are owed to peers.
            }

            // Flush phase + reap.
            for (auto it = conns.begin(); it != conns.end();) {
                connection& c = it->second;
                if (!c.dead) flush(ep, c, t);
                if (c.dead ||
                    (c.peer_closed && c.pending.size() == c.pending_off && c.out.empty())) {
                    ::close(c.fd);
                    ++t.closed;
                    it = conns.erase(it);
                } else {
                    ++it;
                }
            }

            if (draining) break;
        }

        // Linger: give owed response bytes a bounded chance to leave.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(200);
        for (;;) {
            bool owed = false;
            for (auto& [fd, c] : conns) {
                if (!c.dead && (c.pending.size() > c.pending_off || !c.out.empty())) {
                    flush(ep, c, t);
                    if (c.pending.size() > c.pending_off || !c.out.empty()) owed = true;
                }
            }
            if (!owed || std::chrono::steady_clock::now() >= deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (auto& [fd, c] : conns) {
            ::close(c.fd);
            ++t.closed;
        }
        ::close(ep);
    }

    void accept_some(int ep, int listen_fd, std::unordered_map<int, connection>& conns,
                     server_totals& t) {
        for (;;) {
            const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR) continue;
                return;  // EAGAIN or a transient accept error: next tick
            }
            if (conns.size() >= max_connections) {
                ::close(fd);  // over the per-worker cap; shed immediately
                continue;
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            connection c;
            c.fd = fd;
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = fd;
            if (::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev) != 0) {
                ::close(fd);
                continue;
            }
            conns.emplace(fd, std::move(c));
            ++t.accepted;
        }
    }

    server_config cfg_;
    store_t store_;
    drain_gate gate_;
    std::atomic<bool> shutdown_{false};
    std::atomic<bool> worker_failed_{false};
    std::vector<std::size_t> worker_slots_;
    std::vector<server_totals> worker_totals_;
    std::uint64_t residual_ = 0;
};

}  // namespace lfrc::net
