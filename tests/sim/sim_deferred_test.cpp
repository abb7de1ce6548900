// Model checks for smr::deferred's delta tables and its per-node review,
// which runs as the node's epoch-domain deleter (the races the conformance
// stack test only hits incidentally):
//
//  1. GraceProtectsPinnedReader — a reader holding only an epoch pin (its
//     protection is a raw pointer read; no count, no hazard slot)
//     dereferences a node while another fiber performs the final release
//     and then aggressively drives the drain. The shadow heap fails the
//     schedule if the review frees the node before the reader's pin has
//     aged out of the grace window.
//
//  2. FlushRacesFinalRelease — one fiber links/unlinks a node through a
//     second root, so a +1/-1 pair for the node sits unflushed in its delta
//     table while another fiber applies the final release of the original
//     link. Depending on the interleaving, the authoritative count touches
//     zero while the table still owes the node a +1 (resurrection through
//     the review's re-check), or the flush lands first and the release is
//     the true final one. Either way the node must be freed exactly once
//     and nothing may leak — double-free is caught by the shadow heap, a
//     leak by the arena check, a stuck retire by the residual-pending
//     check at quiescence.
//
//  3. TwoReviewersRaceResurrection — white-box check of the reviewer's
//     resurrection claim handoff, driving deferred_detail::runtime's
//     counts directly: setup zero-crosses a node (claimed and retired) and
//     resurrects it with a +1; fiber A drains the epoch domain, so its
//     review finds the count > 0, while fiber B performs the final release
//     and drives its own unpinned drain to the free. The dangerous
//     schedule: A relinquishes the claim, B's release retires the node
//     again and B's drain advances epochs and frees it — any access A
//     makes after losing the claim is a UAF the shadow heap flags. A must
//     therefore release the claim only through a CAS that requires
//     count > 0 (failure = claim still held). A preemption bound of 1
//     makes this a dense search over A's preemption point; the pre-fix
//     review (claim released with fetch_and, then re-read) fails this test
//     at this seed.
#include <gtest/gtest.h>

#include <memory>

#include "sim_test_support.hpp"
#include "smr/smr.hpp"

namespace {

using namespace sim_tests;
namespace smr = lfrc::smr;

using policy = smr::deferred<>;
using rt = smr::deferred_detail::runtime;

struct node : policy::node_base<node> {
    static constexpr std::size_t smr_link_count = 1;
    policy::link<node> next;
    template <typename F>
    void smr_children(F&& f) {
        f(next);
    }
};
static_assert(smr::detail::children_cover_all_links_v<node>);

struct fixture {
    policy pol;
    policy::link<node> root1;
    policy::link<node> root2;
    node* x = nullptr;

    fixture() {
        auto o = pol.make_owner<node>();
        x = o.get();
        pol.init_link(root1, x);  // x's count: birth + root1 link
        pol.publish_ok(o);        // birth released by owner dtor → root1 owns x
    }

    void teardown(bool conserve_check) {
        pol.reset_chain(root1);
        pol.reset_chain(root2);
        pol.drain(64);
        expect_quiesced_drain();
        (void)conserve_check;
    }
};

TEST(SimDeferred, GraceProtectsPinnedReader) {
    const auto res = sim::explore(opts(4242, 1500), [](sim::env& e) {
        auto s = std::make_shared<fixture>();
        e.spawn("reader", [s] {
            policy::guard g(s->pol);
            node* p = g.protect(0, s->root1);
            if (p != nullptr) {
                // Instrumented access through the (possibly already
                // unlinked) node: the shadow heap flags it if the reviewer
                // freed p under our pin.
                (void)g.traverse(1, p->next);
            }
        });
        e.spawn("releaser", [s] {
            node* p;
            {
                policy::guard g(s->pol);
                p = g.protect(0, s->root1);
            }
            if (p != nullptr && s->pol.cas_link(s->root1, p, static_cast<node*>(nullptr))) {
                // Final release is in our table until the guard above
                // closed; now race the reviewer against the reader's pin.
                s->pol.drain(8);
            }
        });
        e.on_quiesce([s] { s->teardown(true); });
    });
    EXPECT_CLEAN(res);
}

TEST(SimDeferred, FlushRacesFinalRelease) {
    const auto res = sim::explore(opts(90125, 1500), [](sim::env& e) {
        auto s = std::make_shared<fixture>();
        e.spawn("relinker", [s] {
            {
                policy::guard g(s->pol);
                node* p = g.protect(0, s->root1);
                if (p != nullptr) {
                    // +1 for x parks in our delta table...
                    s->pol.cas_link(s->root2, static_cast<node*>(nullptr), p);
                }
            }  // ...and flushes here, racing the releaser's -1.
            {
                policy::guard g(s->pol);
                node* q = g.protect(0, s->root2);
                if (q != nullptr) {
                    s->pol.cas_link(s->root2, q, static_cast<node*>(nullptr));
                }
            }
        });
        e.spawn("releaser", [s] {
            node* p;
            {
                policy::guard g(s->pol);
                p = g.protect(0, s->root1);
            }
            if (p != nullptr && s->pol.cas_link(s->root1, p, static_cast<node*>(nullptr))) {
                s->pol.drain(8);
            }
        });
        e.on_quiesce([s] { s->teardown(true); });
    });
    EXPECT_CLEAN(res);
}

TEST(SimDeferred, TwoReviewersRaceResurrection) {
    auto o = opts(60609, 2000);
    o.preemption_bound = 1;  // one involuntary switch: A's claim handoff
    const auto res = sim::explore(o, [](sim::env& e) {
        // One plain node, no roots: the counts are driven directly so the
        // count>0 review path is reached on (nearly) every schedule.
        auto s = std::make_shared<node*>(nullptr);
        auto& r = rt::instance();
        *s = new node;       // birth reference, count 1
        r.release(*s);       // zero-cross: claimed + retired into the domain
        r.add_ref(*s);       // resurrected: count 1, claim still held
        // Age the record past its grace period, so A's first reclaim pass
        // reviews it and the handoff lies within A's first few steps.
        auto& dom = lfrc::reclaim::epoch_domain::global();
        for (int i = 0; i < 3; ++i) dom.try_advance();
        e.spawn("reviewerA", [] {
            // Its review of the resurrected node must hand the claim back.
            lfrc::reclaim::epoch_domain::global().drain(1);
        });
        e.spawn("releaserB", [s] {
            rt::instance().release(*s);  // final release: re-crosses zero
            // Unpinned drain: if A released the claim, the release above
            // retired the node again; this outwaits the grace period and
            // frees it — while A may still be parked inside its handoff.
            lfrc::reclaim::epoch_domain::global().drain(1);
        });
        e.on_quiesce([] {
            if (lfrc::flush_deferred_frees(64) != 0) {
                sim::fail_here("residual-pending",
                               "retired node stuck at quiescence");
            }
        });
    });
    EXPECT_CLEAN(res);
}

}  // namespace
