// Generic Treiber stack over any lfrc::smr policy.
//
// One traversal/CAS body serves every reclamation scheme; the policy
// decides what "safe to dereference" and "safe to free" mean. Under
// smr::counted<Domain> it is the paper's LFRC-transformed Treiber stack,
// one of §2.1's "other candidate implementations in the pipeline": the §3
// step-5 rewrite happens inside the policy, not here. Under ebr/hp/leaky it
// is the GC-dependent shape, with memory reuse delegated to the policy
// (E5 benchmarks the two against each other).
//
// Cycle-free garbage criterion: popped nodes form chains (a popped node may
// still reference a live or popped successor until destroyed) but never
// cycles, so the criterion holds with no modification — the "natural
// implementation" case of §2.1.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "smr/policy.hpp"

namespace lfrc::containers {

template <typename V, lfrc::smr::policy P>
class stack_core {
  public:
    struct node : P::template node_base<node> {
        node() = default;
        explicit node(V v) : value(std::move(v)) {}

        typename P::template link<node> next;
        V value{};

        // Child enumeration for tracing policies (counted unravel, gc mark).
        // smr_link_count is its compile-time mirror: lfrc_lint checks it
        // against the declared link/vslot members, the trait
        // smr::detail::children_cover_all_links_v checks it in-template,
        // and debug/sim builds assert the enumeration visits exactly this
        // many fields.
        static constexpr std::size_t smr_link_count = 1;
        template <typename F>
        void smr_children(F&& f) {
            f(next);
        }
    };
    static_assert(lfrc::smr::detail::children_cover_all_links_v<node>,
                  "stack node must declare smr_link_count and a visitable "
                  "smr_children enumeration");

    stack_core()
        requires std::default_initializable<P>
        : stack_core(P{}) {}
    explicit stack_core(P policy) : policy_(std::move(policy)) {
        policy_.register_root(head_);
    }

    stack_core(const stack_core&) = delete;
    stack_core& operator=(const stack_core&) = delete;

    ~stack_core() { policy_.reset_chain(head_); }

    void push(V v) {
        auto nd = policy_.template make_owner<node>(std::move(v));
        typename P::guard g(policy_);
        for (;;) {
            g.step();
            // Strong-protect the head: init_link on a counted policy adds a
            // reference to the pointee, which must not be freed meanwhile.
            node* h = g.protect(0, head_);
            policy_.init_link(nd->next, h);
            if (policy_.cas_link(head_, h, nd.get())) {
                policy_.publish_ok(nd);
                return;
            }
        }
    }

    std::optional<V> pop() {
        typename P::guard g(policy_);
        for (;;) {
            g.step();
            node* h = g.protect(0, head_);
            if (h == nullptr) return std::nullopt;
            node* next = g.protect(1, h->next);
            if (policy_.cas_link(head_, h, next)) {
                V out = std::move(h->value);
                policy_.retire_unlinked(h);
                return out;
            }
        }
    }

    bool empty() noexcept { return policy_.peek(head_) == nullptr; }

    P& policy() noexcept { return policy_; }

  private:
    P policy_;
    typename P::template link<node> head_;
};

}  // namespace lfrc::containers
