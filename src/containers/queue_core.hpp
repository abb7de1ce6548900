// Generic Michael & Scott queue [13] over any lfrc::smr policy.
//
// The original (PODC 1996) is GC-dependent in exactly the sense of the
// paper: in a garbage-collected environment its tag-free form is correct
// because nodes cannot be reused while referenced. Under
// smr::counted<Domain> this is its LFRC-transformed form, with the Table-1
// pointer operation replacements all inside the policy; under ebr/hp/leaky
// it is the manual-reclamation comparator. The dummy-node M&S shape is
// unchanged; the policy supplies protection (head/tail/next reads) and
// reclamation (dequeued dummies).
//
// Cycle-free garbage: a dequeued node's `next` keeps pointing forward (to a
// newer node), so garbage forms forward chains, never cycles — a slow
// thread holding an old head pins the chain up to the current head until it
// releases, after which everything collapses. §2.1's criterion holds
// naturally.
#pragma once

#include <concepts>
#include <cstddef>
#include <optional>
#include <utility>

#include "smr/policy.hpp"

namespace lfrc::containers {

template <typename V, lfrc::smr::policy P>
class queue_core {
  public:
    struct node : P::template node_base<node> {
        node() = default;
        explicit node(V v) : value(std::move(v)) {}

        typename P::template link<node> next;
        V value{};

        static constexpr std::size_t smr_link_count = 1;
        template <typename F>
        void smr_children(F&& f) {
            f(next);
        }
    };
    static_assert(lfrc::smr::detail::children_cover_all_links_v<node>,
                  "queue node must declare smr_link_count and a visitable "
                  "smr_children enumeration");

    queue_core()
        requires std::default_initializable<P>
        : queue_core(P{}) {}
    explicit queue_core(P policy) : policy_(std::move(policy)) {
        typename P::thread_scope scope(policy_);  // ctor allocates (gc)
        auto d = policy_.template make_owner<node>();
        policy_.init_link(head_, d.get());
        policy_.init_link(tail_, d.get());
        policy_.publish_ok(d);
        policy_.register_root(head_);
        policy_.register_root(tail_);
    }

    queue_core(const queue_core&) = delete;
    queue_core& operator=(const queue_core&) = delete;

    ~queue_core() {
        // Drop tail's claim without deleting (head's chain still reaches the
        // node tail points at), then tear down the chain once.
        policy_.init_link(tail_, static_cast<node*>(nullptr));
        policy_.reset_chain(head_);
    }

    void enqueue(V v) {
        auto nd = policy_.template make_owner<node>(std::move(v));
        typename P::guard g(policy_);
        for (;;) {
            g.step();
            node* t = g.protect(0, tail_);
            node* next = g.protect(1, t->next);
            if (t != policy_.peek(tail_)) continue;  // tail moved under us
            if (next == nullptr) {
                // nd needs no hazard here: until the link CAS succeeds the
                // owner keeps it alive, and afterwards it is reachable.
                if (policy_.cas_link(t->next, static_cast<node*>(nullptr), nd.get())) {
                    policy_.cas_link(tail_, t, nd.get());  // swing; ok to lose
                    policy_.publish_ok(nd);
                    return;
                }
            } else {
                policy_.cas_link(tail_, t, next);  // help a lagging tail
            }
        }
    }

    std::optional<V> dequeue() {
        typename P::guard g(policy_);
        for (;;) {
            g.step();
            node* h = g.protect(0, head_);
            node* t = policy_.peek(tail_);
            node* next = g.protect(1, h->next);
            if (h != policy_.peek(head_)) continue;
            if (next == nullptr) return std::nullopt;  // empty (dummy only)
            if (h == t) {
                policy_.cas_link(tail_, t, next);  // tail lagging behind head
                continue;
            }
            // Copy before the CAS: once head swings, `next` is the new dummy
            // and a racing dequeuer may free it (manual policies) as soon as
            // our slot protection is the only thing keeping it.
            V out = next->value;
            if (policy_.cas_link(head_, h, next)) {
                policy_.retire_unlinked(h);
                return out;
            }
        }
    }

    bool empty() noexcept {
        typename P::guard g(policy_);
        g.step();
        node* h = g.protect(0, head_);
        return policy_.peek(h->next) == nullptr;
    }

    P& policy() noexcept { return policy_; }

  private:
    P policy_;
    typename P::template link<node> head_;
    typename P::template link<node> tail_;
};

}  // namespace lfrc::containers
