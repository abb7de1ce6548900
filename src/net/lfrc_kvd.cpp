// lfrc_kvd — the KV-store server binary (sharded epoll front-end).
//
//   lfrc_kvd [--host=127.0.0.1] [--port=7117] [--workers=2]
//            [--policy=deferred|ebr|borrowed|leaky]
//
// The store starts at 8 shards × 64 buckets and doubles its index online
// once it holds more than 8 live entries per bucket. The buffer cap, the
// connection cap and the epoll timeout are kv_server constants.
//
// SIGINT/SIGTERM run the graceful drain (stop accepting, flush owed
// responses, quiesce workers, kv_store::drain()); the exit status is 0 iff
// the store drained to zero residual — CI's loopback smoke asserts on it.
//
// --policy selects the reclamation discipline behind the identical store
// body, same dispatch as the E9 matrix. hp is deliberately absent: the
// server wraps each event-loop tick in one outer guard and hp guards
// cannot nest (see kv_server's static_assert).
#include <csignal>
#include <cstdio>
#include <string>

#include "lfrc/lfrc.hpp"
#include "net/server.hpp"
#include "smr/smr.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }  // lfrc-lint: order(external-stop-flag)

template <typename Policy>
int serve(const lfrc::net::server_config& cfg) {
    lfrc::net::kv_server<Policy> server(cfg);
    return server.run(&g_stop);
}

}  // namespace

int main(int argc, char** argv) {
    lfrc::util::cli_flags flags(argc, argv);
    lfrc::net::server_config cfg;
    cfg.host = flags.get_string("host", cfg.host);
    cfg.port = static_cast<std::uint16_t>(flags.get_u64("port", cfg.port));
    cfg.workers = static_cast<int>(flags.get_u64("workers", 2));
    const std::string policy = flags.get_string("policy", "deferred");

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (policy == "deferred") return serve<lfrc::smr::deferred<>>(cfg);
    if (policy == "ebr") return serve<lfrc::smr::ebr<>>(cfg);
    if (policy == "borrowed") return serve<lfrc::smr::borrowed<lfrc::domain>>(cfg);
    if (policy == "leaky") return serve<lfrc::smr::leaky<>>(cfg);
    std::fprintf(stderr,
                 "lfrc_kvd: unknown --policy=%s (want deferred|ebr|borrowed|leaky; "
                 "hp cannot serve: its guards do not nest under the tick guard)\n",
                 policy.c_str());
    return 2;
}
