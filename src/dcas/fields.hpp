// The shared fields every LFRC operation and every smr policy works on:
// one encoding and one read rule, over any DCAS engine.
//
//   link<Engine, T>   one-word pointer field (the `*A` of the paper's
//                     Figure 2); null-initialized per §3 step 6
//   flag<Engine>      one-word boolean, encoded like a count so it can be
//                     a DCAS operand alongside a link (a logical-deletion
//                     mark with no bits smuggled into pointers)
//   vslot<Engine, T>  (pointer, version) cell pair: the LL/SC surface
//
// lfrc::basic_domain names them ptr_field / flag_field / ll_field, and
// smr::cell_ops names them link / flag / vslot, so every policy, counted
// ones included, stores the same cells. The two 3-word CASNs the kv
// store's value slots need (install_if_live, claim_mark_dead) are here too,
// raw: callers add their own count or retire bookkeeping around them.
//
// All concurrent access goes through Engine. The fields add single-owner
// accessors (destruction, construction before publication, quiescence),
// and exclusive_get reads through Engine::read as well: a stale helper
// that validated an operation on the cell before it completed can still
// park its RDCSS word there for a few steps (mcas_engine.hpp), and only
// the engine resolves that word to the value.
//
// exclusive_set may stay a plain release store. A parked word it
// overwrites belongs to an operation that has already decided, and that
// operation's completing CAS, which expects its own word, then fails and
// leaves the stored value in place.
//
// Fields are not copyable or movable: DCAS identity is the cell's address.
#pragma once

#include <atomic>
#include <cstdint>

#include "dcas/cell.hpp"

namespace lfrc::dcas {

#if defined(LFRC_ENABLE_MUTATIONS)
/// Seeded stale-helper bug (tests/sim/sim_stale_helper_test): when set,
/// every field's exclusive_get loads its cell raw and returns whatever word
/// is there — the read that handed a parked RDCSS word to destroy as a
/// child.
inline std::atomic<bool>& mutate_raw_exclusive_get() noexcept {
    static std::atomic<bool> on{false};
    return on;
}
#endif

namespace detail {

template <typename Engine, typename T>
T* exclusive_read(const cell& c) noexcept {
    auto& mc = const_cast<cell&>(c);
#if defined(LFRC_ENABLE_MUTATIONS)
    if (mutate_raw_exclusive_get().load(std::memory_order_relaxed)) {  // lfrc-lint: order(unpaired-mutation-flag)
        return reinterpret_cast<T*>(mc.raw().load(std::memory_order_acquire));  // lfrc-lint: order(cell-publish)
    }
#endif
    return decode_ptr<T>(Engine::read(mc));
}

}  // namespace detail

/// One-word pointer field. T may be incomplete here (self-referential node
/// types).
template <typename Engine, typename T>
class link {
  public:
    link() noexcept = default;
    link(const link&) = delete;
    link& operator=(const link&) = delete;

    T* exclusive_get() const noexcept { return detail::exclusive_read<Engine, T>(cell_); }
    void exclusive_set(T* p) noexcept {
        cell_.raw().store(encode_ptr(p), std::memory_order_release);  // lfrc-lint: order(cell-publish)
    }

    dcas::cell& cell() noexcept { return cell_; }
    const dcas::cell& cell() const noexcept { return cell_; }

  private:
    dcas::cell cell_{0};
};

/// One-word boolean field. Holds no pointer, so no tracing scheme ever
/// enumerates it.
template <typename Engine>
class flag {
  public:
    flag() noexcept = default;
    explicit flag(bool initial) noexcept : cell_(encode(initial)) {}
    flag(const flag&) = delete;
    flag& operator=(const flag&) = delete;

    bool load() const noexcept {
        return decode_count(Engine::read(const_cast<dcas::cell&>(cell_))) != 0;
    }
    bool cas(bool expected, bool desired) {
        return Engine::cas(cell_, encode(expected), encode(desired));
    }

    static std::uint64_t encode(bool b) noexcept { return encode_count(b ? 1 : 0); }

    dcas::cell& cell() noexcept { return cell_; }

  private:
    dcas::cell cell_{encode_count(0)};
};

/// Versioned pointer slot. Reads validate version/pointer/version; writes
/// are engine DCASes or CASNs that bump the version, so ABA on the pointer
/// alone can never satisfy a conditional store.
template <typename Engine, typename T>
class vslot {
  public:
    vslot() noexcept = default;
    vslot(const vslot&) = delete;
    vslot& operator=(const vslot&) = delete;

    T* exclusive_get() const noexcept { return detail::exclusive_read<Engine, T>(ptr_); }

    dcas::cell& ptr_cell() noexcept { return ptr_; }
    dcas::cell& version_cell() noexcept { return version_; }

  private:
    dcas::cell ptr_{0};
    dcas::cell version_{encode_count(0)};
};

/// CASN {ptr old->new, version v->v+1, flag false->false}: install a value
/// iff the slot is unchanged AND the entry is still live.
template <typename Engine, typename T>
bool install_if_live(vslot<Engine, T>& s, std::uint64_t ver, T* old0, T* new0,
                     flag<Engine>& dead) {
    typename Engine::casn_op ops[3] = {
        {&s.ptr_cell(), encode_ptr(old0), encode_ptr(new0)},
        {&s.version_cell(), encode_count(ver), encode_count(ver + 1)},
        {&dead.cell(), flag<Engine>::encode(false), flag<Engine>::encode(false)},
    };
    return Engine::casn(ops, 3);
}

/// CASN {ptr old->null, version v->v+1, flag false->true}: the erase claim
/// — take the value and kill the entry in one step, so a racing write can
/// never land in a claimed entry (store.hpp's invariant).
template <typename Engine, typename T>
bool claim_mark_dead(vslot<Engine, T>& s, std::uint64_t ver, T* old0, flag<Engine>& dead) {
    typename Engine::casn_op ops[3] = {
        {&s.ptr_cell(), encode_ptr(old0), encode_ptr(static_cast<T*>(nullptr))},
        {&s.version_cell(), encode_count(ver), encode_count(ver + 1)},
        {&dead.cell(), flag<Engine>::encode(false), flag<Engine>::encode(true)},
    };
    return Engine::casn(ops, 3);
}

}  // namespace lfrc::dcas
