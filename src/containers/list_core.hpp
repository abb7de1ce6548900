// Generic sorted linked list (Harris-style logical delete + the paper's
// DCAS unlink) over any lfrc::smr policy.
//
// This is the one traversal body behind lfrc_list_set, lfrc_hash_set and
// the kv store's buckets. The shape:
//
//   * the chain hangs off an inline list_head: the first node's link plus
//     a flag of the head's own that is never set, so the head anchors
//     inserts and unlinks at the front exactly like a live predecessor —
//     no sentinel node, no allocation per chain;
//   * a walk may instead start at a permanent node of the chain (the kv
//     store's split-ordered dummies), named by a container-root link: a
//     node whose `dead` is never set anchors exactly like the head, and a
//     walk from any such node at or before a key sees the same chain
//     suffix a walk from the head would;
//   * nodes are ordered by a hook (order() below): set nodes compare their
//     `key`; a node type may define its own three-way order;
//   * erase marks `dead` first (flag_cas false->true, the logical delete),
//     then unlinks with dcas_link_flag anchored on the PREDECESSOR's dead
//     flag staying false — so a node is unlinked (and retired) exactly
//     once, and never from an already-unlinked predecessor;
//   * a dead node's `next` is never written again, so lazy traversals can
//     read through it on policies where that is memory-safe.
//
// Guard slot protocol (three slots of one caller-owned guard):
//   slot 0 = pred (or the start node), slot 1 = curr, slot 2 = succ / fresh
//   node. Slot 3 is left to a node type's order hook.
//
// hp's frozen-pointer trap, handled here: with hazard pointers, a dead
// node's frozen `next` revalidates forever, so a successor read from a dead
// node may only be trusted once OUR unlink DCAS succeeds (success proves
// the dead node was linked until that instant, and nothing past a linked
// node can have been retired). On DCAS failure the successor is never
// dereferenced — the walk restarts. Likewise a walk only advances past a
// node after re-checking the predecessor is still live.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "smr/policy.hpp"

namespace lfrc::containers {

/// Node for set-like users of list_core (lfrc_list_set, hash_set_core).
/// kv_store supplies its own entry type with the same field names.
template <lfrc::smr::policy P, typename Key>
struct set_node : P::template node_base<set_node<P, Key>> {
    explicit set_node(Key k) : key(std::move(k)) {}

    typename P::template link<set_node> next;
    typename P::flag dead;
    Key key{};

    static constexpr std::size_t smr_link_count = 1;
    template <typename F>
    void smr_children(F&& f) {
        f(next);
    }
};

/// A chain's inline head: the first node's link and a flag that is never
/// set (the head is never deleted), so a DCAS anchored here behaves like
/// one anchored on a live predecessor. Every head has its own flag: the
/// anchor flag is a DCAS target, and a shared one would be a cache line
/// every front insert writes a descriptor into.
template <lfrc::smr::policy P, typename Node>
struct list_head {
    typename P::template link<Node> next;
    typename P::flag dead;
};

template <lfrc::smr::policy P, typename Node>
class list_core {
  public:
    using node_type = Node;
    using head_type = list_head<P, Node>;
    static_assert(lfrc::smr::detail::children_cover_all_links_v<Node>,
                  "list node must declare smr_link_count and a visitable "
                  "smr_children enumeration");

    /// What an insert or unlink DCAS is anchored on: the link a chain
    /// continues from and the flag that must still read false — the
    /// head's own pair, or a predecessor node's next/dead.
    struct anchor {
        typename P::template link<Node>* next;
        typename P::flag* dead;
    };
    /// The anchor of a head or of a node: both carry `next` and `dead`.
    template <typename T>
    static anchor anchor_of(T& x) noexcept {
        return {&x.next, &x.dead};
    }

    struct position {
        anchor pred;  // the start's pair, or a node strongly protected in slot 0
        Node* curr;   // strongly protected in slot 1; nullptr = end of chain
        bool match;   // curr is the searched key's node
    };

    /// A view of the chain hanging off `head`. With `start`, walks begin at
    /// the node that link holds instead: a node of this chain that is never
    /// marked dead and sorts at or before every key the view is asked
    /// about. The link must already hold it (callers check with peek).
    list_core(P& policy, head_type& head,
              typename P::template link<Node>* start = nullptr) noexcept
        : policy_(policy), head_(head), start_(start) {}

    /// The ordering hook: negative when `n` sorts before `key`, zero when
    /// `n` is `key`'s node, positive after. A node type may define
    /// `order(policy, guard, key)` (it may use guard slot 3); otherwise
    /// nodes compare their `key` member.
    template <typename K>
    int order(typename P::guard& g, Node& n, const K& key) {
        if constexpr (requires { n.order(policy_, g, key); }) {
            return n.order(policy_, g, key);
        } else {
            return n.key < key ? -1 : (n.key == key ? 0 : 1);
        }
    }

    /// Strong search: find the first live node that does not sort before
    /// `key`, physically unlinking any dead node encountered. On return
    /// slot 0 protects pred's node (or the start node, or is clear when
    /// pred is the head) and slot 1 protects curr; both are live as of the
    /// last flag checks.
    template <typename K>
    position search(typename P::guard& g, const K& key) {
    restart:
        anchor pred = start_anchor(g);
        Node* curr = g.protect(1, *pred.next);
        for (;;) {
            g.step();
            if (curr == nullptr) return {pred, nullptr, false};
            if (policy_.flag_load(curr->dead)) {
                // Help unlink. succ comes from a dead node's frozen next:
                // only trusted after our own unlink DCAS succeeds.
                Node* succ = g.protect(2, curr->next);
                if (!policy_.dcas_link_flag(*pred.next, *pred.dead, curr, false, succ,
                                            false)) {
                    goto restart;
                }
                policy_.retire_unlinked(curr);
                g.advance(1, 2);
                curr = succ;
                continue;
            }
            const int c = order(g, *curr, key);
            if (c >= 0) return {pred, curr, c == 0};
            g.advance(0, 1);
            pred = anchor_of(*curr);
            curr = g.protect(1, *pred.next);
            // pred live here => it was linked when we read its next, so
            // curr was reachable at that instant (the hp soundness step).
            if (policy_.flag_load(*pred.dead)) goto restart;
        }
    }

    /// Read-only lookup. On lazy policies this walks straight through dead
    /// nodes with traverse-grade slots (no helping, no restarts — the
    /// paper's borrowed fast path); the result in slot 1 is traverse-grade
    /// and callers that need a write license must g.upgrade(1). On hp the
    /// strong search runs instead and the result is already strong.
    template <typename K>
    Node* find(typename P::guard& g, const K& key) {
        if constexpr (P::has_lazy_traverse) {
            g.step();
            Node* curr = first_lazy(g);
            int c = 1;
            while (curr != nullptr && (c = order(g, *curr, key)) < 0) {
                g.step();
                Node* next = g.traverse(2, curr->next);
                g.advance(1, 2);
                curr = next;
            }
            if (curr == nullptr || c != 0 || policy_.flag_load(curr->dead)) return nullptr;
            return curr;
        } else {
            position pos = search(g, key);
            return pos.match ? pos.curr : nullptr;
        }
    }

    /// Find-or-insert. `make` is called (at most once per retry that needs
    /// it) to produce an owner for the new node; its key must equal `key`.
    /// Returns {node, inserted}; the node is strongly protected (slot 1).
    template <typename K, typename Make>
    std::pair<Node*, bool> get_or_insert(typename P::guard& g, const K& key, Make&& make) {
        for (;;) {
            position pos = search(g, key);
            if (pos.match) return {pos.curr, false};
            auto nd = make();
            policy_.init_link(nd->next, pos.curr);
            g.protect_new(2, nd.get());  // announce BEFORE the publishing CAS
            Node* raw = nd.get();
            if (policy_.dcas_link_flag(*pos.pred.next, *pos.pred.dead, pos.curr, false,
                                       raw, false)) {
                policy_.publish_ok(nd);
                g.advance(1, 2);
                return {raw, true};
            }
            g.clear(2);  // owner frees the unpublished node
        }
    }

    template <typename K>
    bool insert(typename P::guard& g, const K& key) {
        auto [node, inserted] =
            get_or_insert(g, key, [&] { return policy_.template make_owner<Node>(key); });
        (void)node;
        return inserted;
    }

    /// Logical-then-physical erase. The flag_cas is the linearization
    /// point; whoever wins it owns the (exactly-once) unlink+retire, though
    /// any searcher may complete the physical step on our behalf.
    template <typename K>
    bool erase(typename P::guard& g, const K& key) {
        position pos = search(g, key);
        if (!pos.match) return false;
        if (!policy_.flag_cas(pos.curr->dead, false, true)) return false;  // lost the race
        Node* succ = g.protect(2, pos.curr->next);
        if (policy_.dcas_link_flag(*pos.pred.next, *pos.pred.dead, pos.curr, false, succ,
                                   false)) {
            policy_.retire_unlinked(pos.curr);
        } else {
            g.clear(2);            // frozen-next successor: never dereferenced
            (void)search(g, key);  // help whoever moved pred finish the unlink
        }
        return true;
    }

    /// Re-run the helping search so a node known to be dead gets unlinked.
    template <typename K>
    void help_unlink(typename P::guard& g, const K& key) {
        (void)search(g, key);
    }

    template <typename K>
    bool contains(typename P::guard& g, const K& key) {
        return find(g, key) != nullptr;
    }

    /// Visit every live node. On strict policies (hp) the walk must restart
    /// when it loses its footing; on_restart() fires so aggregating callers
    /// (size) can reset their accumulator.
    template <typename F, typename R>
    void for_each(typename P::guard& g, F&& f, R&& on_restart) {
        if constexpr (P::has_lazy_traverse) {
            g.step();
            Node* curr = first_lazy(g);
            while (curr != nullptr) {
                g.step();
                if (!policy_.flag_load(curr->dead)) f(*curr);
                Node* next = g.traverse(2, curr->next);
                g.advance(1, 2);
                curr = next;
            }
        } else {
        restart:
            anchor pred = start_anchor(g);
            Node* curr = g.protect(1, *pred.next);
            for (;;) {
                g.step();
                if (curr == nullptr) return;
                if (policy_.flag_load(curr->dead)) {
                    Node* succ = g.protect(2, curr->next);
                    if (!policy_.dcas_link_flag(*pred.next, *pred.dead, curr, false, succ,
                                                false)) {
                        on_restart();
                        goto restart;
                    }
                    policy_.retire_unlinked(curr);
                    g.advance(1, 2);
                    curr = succ;
                    continue;
                }
                f(*curr);
                g.advance(0, 1);
                pred = anchor_of(*curr);
                curr = g.protect(1, *pred.next);
                if (policy_.flag_load(*pred.dead)) {
                    on_restart();
                    goto restart;
                }
            }
        }
    }
    template <typename F>
    void for_each(typename P::guard& g, F&& f) {
        for_each(g, std::forward<F>(f), [] {});
    }

    std::size_t size(typename P::guard& g) {
        std::size_t n = 0;
        for_each(g, [&](Node&) { ++n; }, [&] { n = 0; });
        return n;
    }

  private:
    /// Strong start: the head's pair, or the start node's with that node
    /// protected in slot 0 (a container-root link, so protect may read it).
    anchor start_anchor(typename P::guard& g) {
        if (start_ == nullptr) {
            g.clear(0);
            return anchor_of(head_);
        }
        return anchor_of(*g.protect(0, *start_));
    }

    /// Lazy start: the first node past the start, traverse-grade in slot 1.
    Node* first_lazy(typename P::guard& g) {
        if (start_ == nullptr) return g.traverse(1, head_.next);
        return g.traverse(1, g.traverse(0, *start_)->next);
    }

    P& policy_;
    head_type& head_;
    typename P::template link<Node>* start_;
};

/// A container's chains: one contiguous array of inline heads (two
/// one-word cells each), with no per-chain heap object or policy copy.
/// The container's one policy instance registers each head's gc root here
/// and tears each chain down; operator[] hands out the list_core view
/// (policy&, head&) of one chain.
template <lfrc::smr::policy P, typename Node>
class list_heads {
  public:
    list_heads(P& policy, std::size_t n)
        : policy_(policy), n_(n), heads_(std::make_unique<list_head<P, Node>[]>(n)) {
        for (std::size_t i = 0; i < n_; ++i) policy_.register_root(heads_[i].next);
    }
    ~list_heads() { clear(); }

    list_heads(const list_heads&) = delete;
    list_heads& operator=(const list_heads&) = delete;

    list_core<P, Node> operator[](std::size_t i) noexcept { return {policy_, heads_[i]}; }
    /// Chain i's view walking from a start link (see the list_core ctor).
    list_core<P, Node> chain(std::size_t i, typename P::template link<Node>* start) noexcept {
        return {policy_, heads_[i], start};
    }
    std::size_t size() const noexcept { return n_; }

    /// Quiescent teardown of every chain; the heads stay usable.
    void clear() {
        for (std::size_t i = 0; i < n_; ++i) policy_.reset_chain(heads_[i].next);
    }

  private:
    P& policy_;
    std::size_t n_;
    std::unique_ptr<list_head<P, Node>[]> heads_;
};

}  // namespace lfrc::containers
