"""lfrc_lint rules R1-R7: the paper's Section-3 LFRC-compliance
preconditions, as mechanical checks over a SourceModel (+ the CFG /
call-graph analyses in analysis.py).

Scope model
-----------
The LFRC/SMR seam splits the tree into two zones:

  policy internals   src/smr, src/dcas + the machinery they are built on
                     (src/lfrc, src/reclaim, src/gc, src/alloc, src/sim,
                     src/util). Raw cells, atomics and new/delete are the
                     *implementation* of the discipline here.
  client code        src/containers, src/store, src/snark, src/net,
                     examples and the fixture corpus. Every shared-pointer
                     access must go through policy/guard operations (the
                     paper's load/store/copy/destroy/CAS/DCAS set); rules
                     R1-R5 enforce exactly that. src/net is the canonical
                     long-lived-object client: connections outlive the
                     per-tick guards that protect store entries, so R2's
                     escape analysis is the rule that matters most there
                     (fixtures/r2_net_conn_*.hpp).

Two rules audit the *internals* themselves:

  R6 (memory-order discipline)  every non-seq_cst atomic op in src/smr,
                     src/dcas, src/alloc, src/reclaim, src/net must carry
                     `// lfrc-lint: order(<pairing>)` naming the release/
                     acquire (or fence) site it pairs with; pairing keys
                     must resolve to >= 2 annotated sites per lint run
                     (cross-file), except keys prefixed `unpaired-` (owner-
                     only or counter sites with no ordering partner).
  R7 (descriptor-sequence discipline)  in the reuse CASN engine, reads of a
                     pooled descriptor's per-use fields must be re-validated
                     against the descriptor sequence before acting, and the
                     decision CAS must carry the sequence (the Arbel-Raviv &
                     Brown invariant DESIGN.md §13 proves).

Escape hatches are explicit and greppable:
  // lfrc-lint: unlink-winner      R3 — call site IS the unlink winner
  // lfrc-lint: escape-ok          R2 — pointer escape reviewed by hand
  // lfrc-lint: quiescent          R1 — exclusive-access phase (ctor/dtor/
                                   single-owner accessor)
  // lfrc-lint: arena-route        R4 — policy-internal new/delete that IS
                                   the owner seam: the expression resolves
                                   to alloc::counted_base operator
                                   new/delete, i.e. the arena route itself
  // lfrc-lint: order(<key>)       R6 — names this op's pairing site/fence
  // lfrc-lint: seq-owner          R7 — descriptor read in owner context
                                   (the sequence cannot advance under us)
  // lfrc-lint: seq-carried        R7 — the acting CAS compares against the
                                   sequence-tagged descriptor word itself
  // lfrc-lint: exempt(Rn)         any rule, with the rule named
Each hatch suppresses one line; none are wildcards over a file.

A file outside the policy directories can opt into a zone with a
file-scope pragma (used by the fixture corpus, which lives under tools/
rather than src/):
  // lfrc-lint-scope: policy-internal
  // lfrc-lint-scope: order-audited       (R6 applies)
  // lfrc-lint-scope: descriptor-engine   (R7 applies)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import analysis
from analysis import STORE_LHS, balanced_args, split_top_level
from cpp_model import Block, ClassInfo, SourceModel

POLICY_INTERNAL_DIRS = (
    "src/smr/", "src/dcas/", "src/lfrc/", "src/reclaim/",
    "src/gc/", "src/alloc/", "src/sim/", "src/util/",
)

# R6's audit set: the directories whose relaxed/acquire/release choices are
# load-bearing for the reclamation protocols (DESIGN.md §16).
ORDER_AUDITED_DIRS = (
    "src/smr/", "src/dcas/", "src/alloc/", "src/reclaim/", "src/net/",
)

RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7")

LINK_TYPE_RE = re.compile(r"(?:\b|::)(link|ptr_field)\s*<")
VSLOT_TYPE_RE = re.compile(r"(?:\b|::)(vslot|ll_field)\s*<")
FLAG_TYPE_RE = re.compile(r"(?:\b|::)(flag|flag_field)\b")
ATOMIC_PTR_RE = re.compile(r"std\s*::\s*atomic\s*<[^;{}()]*\*")
NODE_BASE_RE = re.compile(r"\bnode_base\s*<")

ATOMIC_OP_RE = re.compile(
    r"([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(load|store|exchange|compare_exchange_weak|compare_exchange_strong|"
    r"fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor)\s*\("
)
RAW_CELL_RE = re.compile(r"(?:\.|->)\s*(raw|cell|ptr_cell|version_cell)\s*\(\s*\)")
EXCLUSIVE_RE = re.compile(r"(?:\.|->)\s*(exclusive_get|exclusive_set)\s*\(")

# Unlink-winning ops for R3 dominance: the link/flag CAS family plus the
# CASN erase claim (vclaim_mark_dead), whose success likewise means this
# thread — and only this thread — took the entry out of the structure.
# The CFG lowering (analysis.py) owns the success-edge placement.
CAS_OP_NAMES = analysis.CAS_OP_NAMES
CAS_OP_RE = re.compile(r"\b(dcas_link_flag|cas_link|flag_cas|vclaim_mark_dead)\s*\(")

GUARD_DECL_RE = re.compile(r"\bguard\b\s+([A-Za-z_]\w*)\s*[({]")
GUARD_PARAM_RE = re.compile(r"\bguard\s*&\s*([A-Za-z_]\w*)")
PROTECT_CALL = ("protect", "traverse", "vprotect", "vtraverse")

NEW_EXPR_RE = re.compile(r"(?<![:\w])new\b(?!\s*\()")
DELETE_EXPR_RE = re.compile(r"(?<![:\w])delete\b")

SMR_LINK_COUNT_RE = re.compile(
    r"\bsmr_link_count\s*=\s*(\d+)"
)
FCALL_RE = re.compile(r"(?<![\w.>])%s\s*\(\s*(?:[\w.\->]*?(?:\.|->))?([A-Za-z_]\w*)\s*\)")

# R6 machinery.
ORDER_TOKEN_RE = re.compile(
    r"\bmemory_order_(relaxed|acquire|release|acq_rel|consume)\b")
ORDER_KEY_RE = re.compile(r"^order\(\s*([a-z0-9\-]+)\s*\)$")
UNPAIRED_PREFIX = "unpaired-"

# R7 machinery.
SEQ_VALIDATE_RE = re.compile(r"\b(desc_seq_of|seq_of_status|read_status)\s*\(")
DESC_CLASS_RE = re.compile(r"_descriptor$")
# Fields that name the identity/arbitration words rather than per-use
# payload: reading these IS the validation protocol, not subject to it.
DESC_CONTROL_FIELD_RE = re.compile(r"seq|status")
STATUS_CAS_LOOKBACK = 400  # chars of same-statement context for the decision CAS


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class OrderSite:
    """One R6-annotated non-seq_cst atomic op."""
    key: str
    path: str
    line: int
    snippet: str


SCOPE_PRAGMA_RE = re.compile(r"lfrc-lint-scope:\s*policy-internal")
ORDER_SCOPE_RE = re.compile(r"lfrc-lint-scope:\s*order-audited")
DESC_SCOPE_RE = re.compile(r"lfrc-lint-scope:\s*descriptor-engine")


def is_policy_internal(relpath: str, model: SourceModel | None = None) -> bool:
    p = relpath.replace("\\", "/")
    if any(p.startswith(d) or f"/{d}" in p for d in POLICY_INTERNAL_DIRS):
        return True
    return model is not None and bool(SCOPE_PRAGMA_RE.search(model.text))


def is_order_audited(relpath: str, model: SourceModel | None = None) -> bool:
    p = relpath.replace("\\", "/")
    if any(p.startswith(d) or f"/{d}" in p for d in ORDER_AUDITED_DIRS):
        return True
    return model is not None and bool(ORDER_SCOPE_RE.search(model.text))


def is_descriptor_engine(relpath: str, model: SourceModel | None = None) -> bool:
    p = relpath.replace("\\", "/")
    if p.startswith("src/dcas/") or "/src/dcas/" in p:
        return True
    return model is not None and bool(DESC_SCOPE_RE.search(model.text))


def is_managed_node(ci: ClassInfo) -> bool:
    """A node class whose shared fields the policy layer owns: it derives
    from a policy node_base (or the counted Domain::object) or enumerates
    smr_children."""
    if NODE_BASE_RE.search(ci.bases or ""):
        return True
    if re.search(r"::object\b|counted_base\b", ci.bases or ""):
        return True
    return "smr_children" in ci.methods


def link_members(ci: ClassInfo):
    links, vslots = [], []
    for m in ci.members:
        if LINK_TYPE_RE.search(m.type_text):
            links.append(m)
        elif VSLOT_TYPE_RE.search(m.type_text):
            vslots.append(m)
    return links, vslots


class RuleContext:
    def __init__(self, model: SourceModel, relpath: str):
        self.model = model
        self.relpath = relpath
        self.findings: list[Finding] = []
        self.order_sites: list[OrderSite] = []
        self.managed = [c for c in model.classes if is_managed_node(c)]
        # Member names through which shared pointers flow (R1's cell set).
        self.link_member_names: set[str] = set()
        for ci in self.managed:
            ls, vs = link_members(ci)
            self.link_member_names.update(m.name for m in ls)
            self.link_member_names.update(m.name for m in vs)
            for m in ci.members:
                if ATOMIC_PTR_RE.search(m.type_text):
                    self.link_member_names.add(m.name)

    def report(self, rule: str, off_or_line: int, message: str, *, is_line=False):
        line = off_or_line if is_line else self.model.line_of(off_or_line)
        if self.model.exempt(line, rule):
            return
        self.findings.append(Finding(rule, self.relpath, line, message))


# ---- R1: no raw atomic access to shared node cells -----------------------

def check_r1(ctx: RuleContext):
    model = ctx.model
    if is_policy_internal(ctx.relpath, model):
        return

    # (a) managed node classes must use policy field types, not raw atomics.
    for ci in ctx.managed:
        for m in ci.members:
            if ATOMIC_PTR_RE.search(m.type_text):
                ctx.report(
                    "R1", m.line,
                    f"managed node '{ci.name}' declares raw atomic pointer "
                    f"cell '{m.name}' ({m.type_text}); shared links must be "
                    f"policy link/vslot fields so every access routes "
                    f"through load/store/CAS/DCAS", is_line=True)

    # (b) no direct atomic op through a link-typed / atomic-ptr member.
    for m in ATOMIC_OP_RE.finditer(model.stripped):
        recv, op = m.group(1), m.group(2)
        segs = re.split(r"\s*(?:\.|->)\s*", recv)
        if segs and segs[-1] in ctx.link_member_names:
            line = model.line_of(m.start())
            if model.annotated(line, "quiescent"):
                continue
            ctx.report(
                "R1", m.start(),
                f"raw atomic {op}() on shared link '{recv}' — use the "
                f"policy's guard/protect and cas_link/dcas_link_flag ops")

    # (c) reaching under a policy field for its cell is the same violation.
    for m in RAW_CELL_RE.finditer(model.stripped):
        line = model.line_of(m.start())
        if model.annotated(line, "quiescent"):
            continue
        ctx.report(
            "R1", m.start(),
            f".{m.group(1)}() unwraps a policy field's raw cell outside "
            f"policy internals")

    # (d) exclusive_get/exclusive_set are single-owner-phase ops: allowed
    # only in ctors/dtors, smr_dispose, tracing adapters, or annotated
    # quiescent accessors.
    for m in EXCLUSIVE_RE.finditer(model.stripped):
        line = model.line_of(m.start())
        if model.annotated(line, "quiescent"):
            continue
        fn = model.enclosing_function(m.start())
        fname = ""
        if fn is not None:
            nm = re.search(r"([~A-Za-z_]\w*)\s*\(", fn.header)
            fname = nm.group(1) if nm else ""
        if fname in ("smr_dispose", "lfrc_visit_children", "gc_trace",
                     "reset_chain") or fname.startswith("~"):
            continue
        ctx.report(
            "R1", m.start(),
            f"{m.group(1)}() outside an exclusive-access phase (annotate "
            f"'lfrc-lint: quiescent' if single-owner access is proven)")


# ---- R2: protected pointers must not escape their guard ------------------
#
# Interprocedural since v2: analysis.escape_summaries closes the per-file
# call graph under a fixed point, so a guard-protected pointer is tracked
# through arbitrary call depth — `top(p)` calling `mid(p)` calling
# `leaf(p) { last_ = p; }` flags at the top-level call site with the full
# chain in the message. Taint also flows through value returns: if `h` is
# protected and `helper` returns its parameter, `auto q = helper(h)` taints
# `q`. Limitations (pinned by fixtures): bare-name call resolution only, and
# a helper that launders its parameter through a local alias before storing
# is not summarized.

def check_r2(ctx: RuleContext):
    model = ctx.model
    if is_policy_internal(ctx.relpath, model):
        return
    summaries = analysis.escape_summaries(model)

    ASSIGN_CALL_RE = re.compile(
        r"\b([A-Za-z_]\w*)\s*=[^=;]*?(?<![\w.>:])([A-Za-z_]\w*)\s*\(")

    def scan_function(fn: Block):
        body = model.block_text(fn)
        base = fn.open_off + 1
        local_guards = set()
        for g in GUARD_DECL_RE.finditer(body):
            # `guard& g` in the header is a caller-owned guard, not local.
            local_guards.add(g.group(1))
        param_guards = {g.group(1) for g in GUARD_PARAM_RE.finditer(fn.header)}
        local_guards -= param_guards
        if not local_guards:
            return

        tainted: set[str] = set()
        for g in sorted(local_guards):
            gcall = re.compile(
                r"\b([A-Za-z_]\w*)\s*=[^=;]*\b" + re.escape(g) +
                r"\s*\.\s*(?:%s)\b" % "|".join(PROTECT_CALL))
            garg = re.compile(
                r"\b([A-Za-z_]\w*)\s*=[^=;]*\([^;]*\b" + re.escape(g) +
                r"\b\s*[,)]")
            binding = re.compile(
                r"auto\s*\[([^\]]+)\]\s*=[^;]*\b" + re.escape(g) + r"\b")
            for m in gcall.finditer(body):
                tainted.add(m.group(1))
            for m in garg.finditer(body):
                tainted.add(m.group(1))
            for m in binding.finditer(body):
                tainted.update(x.strip() for x in m.group(1).split(","))

        # Taint through returning helpers: `q = helper(.., h, ..)` where the
        # summary says helper returns the parameter `h` occupies.
        for _ in range(8):
            grew = False
            for m in ASSIGN_CALL_RE.finditer(body):
                dst, callee = m.group(1), m.group(2)
                if dst in tainted:
                    continue
                summ = summaries.get(callee)
                if not summ:
                    continue
                argtext = balanced_args(body, m.end() - 1)
                if argtext is None:
                    continue
                args = [a.strip() for a in split_top_level(argtext)]
                if any(pe.returns and j < len(args) and args[j] in tainted
                       for j, pe in summ.items()):
                    tainted.add(dst)
                    grew = True
            if not grew:
                break

        for var in sorted(tainted):
            for m in re.finditer(r"\breturn\s+" + re.escape(var) + r"\s*;",
                                 body):
                line = model.line_of(base + m.start())
                if model.annotated(line, "escape-ok"):
                    continue
                ctx.report(
                    "R2", base + m.start(),
                    f"'{var}' was protected by a guard local to this "
                    f"function and escapes via return; the protection dies "
                    f"with the guard (upgrade to an owning reference or "
                    f"take the guard as a parameter)")
            store = re.compile(
                STORE_LHS + r"\s*=\s*" + re.escape(var) + r"\s*;")
            for m in store.finditer(body):
                lhs = m.group(1)
                if lhs in tainted:
                    continue  # pointer-walk within the guard scope
                line = model.line_of(base + m.start())
                if model.annotated(line, "escape-ok"):
                    continue
                ctx.report(
                    "R2", base + m.start(),
                    f"guard-protected '{var}' stored to '{lhs}', outliving "
                    f"its guard scope (escape requires an upgrade to an "
                    f"owning/counted reference)")

        # Interprocedural escape: a tainted pointer passed (bare) to a
        # function whose fixed-point summary stores that parameter, or
        # returns it while this call is itself inside a return statement.
        if tainted:
            return_spans = [(m.start(), m.end())
                            for m in analysis.RETURN_SPAN_RE.finditer(body)]
            for m in analysis.CALL_RE.finditer(body):
                summ = summaries.get(m.group(1))
                if not summ:
                    continue
                argtext = balanced_args(body, m.end() - 1)
                if argtext is None:
                    continue
                args = [a.strip() for a in split_top_level(argtext)]
                in_return = any(a <= m.start() < b for a, b in return_spans)
                for j in sorted(summ):
                    pe = summ[j]
                    if j >= len(args) or args[j] not in tainted:
                        continue
                    if not (pe.stores or (pe.returns and in_return)):
                        continue
                    line = model.line_of(base + m.start())
                    if model.annotated(line, "escape-ok"):
                        continue
                    chain = " -> ".join((m.group(1),) + pe.chain)
                    how = ("stores it beyond the call" if pe.stores
                           else "returns it out of this function")
                    ctx.report(
                        "R2", base + m.start(),
                        f"guard-protected '{args[j]}' passed to "
                        f"'{m.group(1)}', which {how} (escape chain: "
                        f"{chain}) — the pointer outlives its guard scope "
                        f"(upgrade to an owning reference, or pass the "
                        f"guard along)")
                    break  # one finding per call site

    def visit(blk: Block):
        for ch in blk.children:
            if model.is_function_block(ch):
                scan_function(ch)
            visit(ch)

    visit(model.root)


# ---- R3: retire_unlinked only from unlink-winner branches ----------------
#
# v2: real CFG dominance. analysis.build_cfg lowers the enclosing function
# and marks the success edge of every unlink-CAS condition with a synthetic
# cas-success node; a retire site is compliant iff function entry cannot
# reach it once those nodes are deleted. This subsumes the old structural
# forms (positive guard, diverging negated-CAS fall-through) and extends to
# else-arms, nested branches, loops, and early-exit combinations the
# sibling-scan could not see.

def check_r3(ctx: RuleContext):
    model = ctx.model
    if is_policy_internal(ctx.relpath, model):
        return
    cfgs: dict[int, analysis.CFG] = {}
    for m in re.finditer(r"\bretire_unlinked\s*\(", model.stripped):
        # skip declarations/definitions of the op itself
        head = model.stripped[max(0, m.start() - 60):m.start()]
        if re.search(r"\bvoid\s+$", head):
            continue
        line = model.line_of(m.start())
        if model.annotated(line, "unlink-winner"):
            continue
        fn = model.enclosing_function(m.start())
        dominated = False
        if fn is not None:
            cfg = cfgs.get(id(fn))
            if cfg is None:
                cfg = analysis.build_cfg(model, fn)
                cfgs[id(fn)] = cfg
            dominated = analysis.success_dominated(cfg, m.start())
        if dominated:
            continue
        ctx.report(
            "R3", m.start(),
            "retire_unlinked() call site is reachable from function entry "
            "without passing a successful unlink CAS/DCAS (CFG dominance) — "
            "a loser branch retiring means double retire (annotate "
            "'// lfrc-lint: unlink-winner' only with a proof)")


# ---- R4: no new/delete of node types outside owner/policy ----------------
#
# Two legs share one walk:
#   client leg     (original rule) any new/delete in node-managing client
#                  code is a violation — allocation goes through
#                  make_owner/publish_ok, reclamation through
#                  retire_unlinked/reset_chain.
#   internal leg   now that alloc::counted_base routes every node through
#                  lfrc::alloc::arena, `owner` is the ONLY sanctioned
#                  allocation path even inside policy code: a direct
#                  new/delete of a managed node type would bypass the arena
#                  (and its poisoning/accounting). The make_owner / owner
#                  teardown expressions that ARE the seam carry
#                  '// lfrc-lint: arena-route'; anything unannotated is a
#                  bypass.

def check_r4(ctx: RuleContext):
    model = ctx.model
    internal = is_policy_internal(ctx.relpath, model)
    if not ctx.managed:
        return  # no policy-managed nodes here: plain-heap code is out of scope
    for regex, what in ((NEW_EXPR_RE, "new"), (DELETE_EXPR_RE, "delete")):
        for m in regex.finditer(model.stripped):
            if what == "delete":
                before = model.stripped[:m.start()].rstrip()
                if before.endswith("="):
                    continue  # `= delete` declaration syntax
            line = model.line_of(m.start())
            fn = model.enclosing_function(m.start())
            fname = ""
            if fn is not None:
                nm = re.search(r"([~A-Za-z_]\w*)\s*\(", fn.header)
                fname = nm.group(1) if nm else ""
            if fname == "smr_dispose":
                continue  # the policy contract's sanctioned teardown hook
            if internal:
                if model.annotated(line, "arena-route"):
                    continue
                ctx.report(
                    "R4", m.start(),
                    f"direct {what} inside policy-internal node code — node "
                    f"storage must route through alloc::counted_base (the "
                    f"arena seam); annotate '// lfrc-lint: arena-route' only "
                    f"where the expression resolves to counted_base's "
                    f"operator {what}")
            else:
                ctx.report(
                    "R4", m.start(),
                    f"direct {what} in node-managing code — allocation must "
                    f"go through policy make_owner/publish_ok and "
                    f"reclamation through retire_unlinked/reset_chain")


# ---- R5: smr_children completeness ---------------------------------------

def check_r5(ctx: RuleContext):
    model = ctx.model
    for ci in ctx.managed:
        links, vslots = link_members(ci)
        pointer_members = links + vslots
        has_children = "smr_children" in ci.methods

        # Paper-API nodes (snark level) enumerate via the visitor form
        # `lfrc_visit_children(V&) { v.on_child(member.exclusive_get()); }`
        # instead of the functor form. Treat it as the enumeration; the
        # smr_link_count mirror is a policy-seam concept and not required.
        if not has_children and "lfrc_visit_children" in ci.methods:
            vblk = ci.methods["lfrc_visit_children"]
            vbody = model.block_text(vblk)
            enumerated = set()
            for m in re.finditer(
                    r"\bon_child\s*\(\s*(?:[\w.\->]*?(?:\.|->))?"
                    r"([A-Za-z_]\w*)\s*(?:\.|->)\s*exclusive_get\s*\(",
                    vbody):
                enumerated.add(m.group(1))
            for m in pointer_members:
                if m.name not in enumerated:
                    ctx.report(
                        "R5", m.line,
                        f"pointer member '{ci.name}::{m.name}' is missing "
                        f"from lfrc_visit_children — the counted unravel "
                        f"will never visit it (leak / lost child)",
                        is_line=True)
            continue

        if not has_children:
            if pointer_members:
                ctx.report(
                    "R5", ci.line,
                    f"node '{ci.name}' has pointer-bearing fields "
                    f"({', '.join(m.name for m in pointer_members)}) but no "
                    f"smr_children enumeration — tracing policies cannot "
                    f"see its children", is_line=True)
            continue

        blk = ci.methods["smr_children"]
        fm = re.search(r"\(\s*[\w:<>&\s]*?([A-Za-z_]\w*)\s*\)\s*$",
                       blk.header[:blk.header.rfind(")") + 1])
        functor = fm.group(1) if fm else "f"
        body = model.block_text(blk)
        enumerated = set()
        for m in re.finditer(FCALL_RE.pattern % re.escape(functor), body):
            enumerated.add(m.group(1))

        member_names = {m.name for m in pointer_members}
        for m in pointer_members:
            if m.name not in enumerated:
                ctx.report(
                    "R5", m.line,
                    f"pointer member '{ci.name}::{m.name}' is missing from "
                    f"smr_children — counted unravel and gc tracing will "
                    f"never visit it (leak / lost child)", is_line=True)
        for name in sorted(enumerated - member_names):
            flagish = any(m.name == name and FLAG_TYPE_RE.search(m.type_text)
                          for m in ci.members)
            msg = (f"smr_children of '{ci.name}' enumerates '{name}', which "
                   + ("is a flag field (flags hold no pointer and must not "
                      "be traced)" if flagish else
                      "is not a link/vslot member of the class"))
            ctx.report("R5", model.line_of(blk.open_off), msg, is_line=True)

        # The compile-time mirror: smr_link_count feeds
        # smr::detail::children_cover_all_links_v, so it must exist and
        # match the source-level member count.
        own = model.block_text(ci.block)
        cm = SMR_LINK_COUNT_RE.search(own)
        if cm is None:
            ctx.report(
                "R5", ci.line,
                f"node '{ci.name}' defines smr_children but no "
                f"'static constexpr std::size_t smr_link_count' — the "
                f"compile-time trait children_cover_all_links_v cannot "
                f"cross-check it", is_line=True)
        elif int(cm.group(1)) != len(pointer_members):
            ctx.report(
                "R5", model.line_of(ci.block.open_off + cm.start()),
                f"'{ci.name}::smr_link_count' is {cm.group(1)} but the class "
                f"declares {len(pointer_members)} link/vslot member(s)",
                is_line=True)


# ---- R6: memory-order discipline -----------------------------------------
#
# Every non-seq_cst atomic op in the audited directories must carry
# `// lfrc-lint: order(<key>)` on its own line or the line above, where
# <key> names the pairing this op participates in (the release store this
# acquire reads from, the fence this relaxed op is sequenced against, ...).
# The per-file check here flags unannotated ops and stale annotations;
# pairing resolution (every non-`unpaired-` key must have >= 2 sites) is a
# whole-run aggregate — see order_pairing_findings(), called by the driver
# after all files are collected so a release in epoch.cpp can pair with the
# acquire in epoch.hpp.

def check_r6(ctx: RuleContext):
    model = ctx.model
    if not is_order_audited(ctx.relpath, model):
        return
    src_lines = model.text.splitlines()

    def snippet(line: int) -> str:
        raw = src_lines[line - 1] if 0 < line <= len(src_lines) else ""
        raw = raw.split("//", 1)[0].strip()
        return raw[:80]

    token_lines: dict[int, list[str]] = {}
    for m in ORDER_TOKEN_RE.finditer(model.stripped):
        token_lines.setdefault(model.line_of(m.start()), []).append(m.group(1))

    keyed: dict[int, str] = {}
    for line, words in model.annotations.items():
        for w in words:
            km = ORDER_KEY_RE.match(w)
            if km:
                keyed[line] = km.group(1)

    for line, toks in sorted(token_lines.items()):
        key = keyed.get(line) or keyed.get(line - 1)
        if key is None:
            ctx.report(
                "R6", line,
                f"non-seq_cst atomic op (memory_order_{toks[0]}) without "
                f"'// lfrc-lint: order(<pairing>)' — name the "
                f"release/acquire or fence site it pairs with (prefix "
                f"'unpaired-' if it provably has no ordering partner)",
                is_line=True)
        else:
            ctx.order_sites.append(
                OrderSite(key, ctx.relpath, line, snippet(line)))

    for line, key in sorted(keyed.items()):
        if line not in token_lines and (line + 1) not in token_lines:
            ctx.report(
                "R6", line,
                f"stale annotation: order({key}) on a line with no "
                f"non-seq_cst atomic op — delete it or move it to the op it "
                f"documents", is_line=True)


def order_pairing_findings(sites: list[OrderSite]) -> list[Finding]:
    """Whole-run pairing resolution: every key must resolve to >= 2
    annotated sites (its pairing counterpart), unless `unpaired-`-prefixed.
    Run after collecting sites from every linted file."""
    by_key: dict[str, list[OrderSite]] = {}
    for s in sites:
        by_key.setdefault(s.key, []).append(s)
    findings: list[Finding] = []
    for key in sorted(by_key):
        occ = by_key[key]
        if key.startswith(UNPAIRED_PREFIX) or len(occ) >= 2:
            continue
        s = occ[0]
        findings.append(Finding(
            "R6", s.path, s.line,
            f"dangling pairing: order({key}) resolves to no counterpart "
            f"site in this lint run — a pairing needs both ends annotated "
            f"with the same key (or an 'unpaired-' prefix if one-sided)"))
    return findings


def order_table(sites: list[OrderSite]) -> str:
    """The fence-pairing table artifact (markdown), grouped by key.
    DESIGN.md §16 embeds this via docs/fence_pairings.md; ci.sh regenerates
    it and diffs to keep the committed copy fresh."""
    by_key: dict[str, list[OrderSite]] = {}
    for s in sites:
        by_key.setdefault(s.key, []).append(s)
    lines = [
        "# Fence-pairing table",
        "",
        "Generated by `lfrc_lint --order-table` from the `order(<key>)`",
        "annotations R6 enforces (DESIGN.md §16). Every non-seq_cst atomic",
        "op in the audited directories appears here; keys without an",
        "`unpaired-` prefix have >= 2 sites — the two (or more) ends of one",
        "release/acquire or fence pairing. Do not edit by hand:",
        "`python3 tools/lfrc_lint/lfrc_lint.py --root . --order-table"
        " docs/fence_pairings.md src`.",
        "",
        "| pairing key | site | operation |",
        "|---|---|---|",
    ]
    for key in sorted(by_key):
        for s in sorted(by_key[key], key=lambda s: (s.path, s.line)):
            op = s.snippet.replace("|", "\\|")
            lines.append(f"| `{key}` | {s.path}:{s.line} | `{op}` |")
    lines.append("")
    paired = sum(1 for k in by_key if not k.startswith(UNPAIRED_PREFIX))
    unpaired = len(by_key) - paired
    lines.append(f"{len(sites)} annotated sites, {paired} pairings, "
                 f"{unpaired} unpaired keys.")
    lines.append("")
    return "\n".join(lines)


# ---- R7: descriptor-sequence discipline ----------------------------------
#
# The reuse engine (DESIGN.md §13, Arbel-Raviv & Brown) never reclaims
# descriptors; a descriptor name is only meaningful together with the
# sequence number captured when it was resolved. Two obligations follow for
# any code reading a pooled descriptor's *per-use* fields (anything other
# than the seq/status control words):
#
#   (a) a snapshot read must be re-validated before its value is acted on:
#       the enclosing function must check the sequence (desc_seq_of /
#       seq_of_status / read_status) at some point AFTER the read. Owner
#       contexts — the thread that just claimed the descriptor and hasn't
#       published it yet — annotate '// lfrc-lint: seq-owner'. Sites whose
#       *acting CAS* compares against the sequence-tagged descriptor word
#       itself (validation atomic with the act, e.g. the phase-2 unroll)
#       annotate '// lfrc-lint: seq-carried'.
#   (b) the decision CAS on the status word must carry the captured
#       sequence in its expected/desired packing (desc_seq_of within the
#       statement), so a helper of generation n can never conclude an
#       operation of generation n+1.

def _descriptor_fields(model: SourceModel) -> set[str]:
    """Per-use field names of *_descriptor classes (and structs nested
    inside them, e.g. the entry array element type)."""
    desc_blocks = []
    fields: set[str] = set()
    for ci in model.classes:
        if DESC_CLASS_RE.search(ci.name):
            desc_blocks.append(ci.block)
            for m in ci.members:
                if not DESC_CONTROL_FIELD_RE.search(m.name):
                    fields.add(m.name)
    for ci in model.classes:
        blk = ci.block
        if any(d.open_off < blk.open_off and blk.close_off < d.close_off
               for d in desc_blocks):
            for m in ci.members:
                if not DESC_CONTROL_FIELD_RE.search(m.name):
                    fields.add(m.name)
    return fields


def check_r7(ctx: RuleContext):
    model = ctx.model
    if not is_descriptor_engine(ctx.relpath, model):
        return
    fields = _descriptor_fields(model)
    if not fields:
        return

    # (a) per-use reads need a trailing sequence validation.
    access_re = re.compile(
        r"(?:\.|->)\s*(%s)\b(?!\s*\()" % "|".join(
            re.escape(f) for f in sorted(fields)))
    flagged_lines: set[int] = set()
    for m in access_re.finditer(model.stripped):
        line = model.line_of(m.start())
        if line in flagged_lines:
            continue
        if model.annotated(line, "seq-owner") or \
                model.annotated(line, "seq-carried"):
            continue
        fn = model.enclosing_function(m.start())
        if fn is None:
            continue  # declarations / member-init lists
        # The field's own declaration inside the class is not a read.
        hdr = fn.header or ""
        if re.match(r"\s*(struct|class)\b", hdr):
            continue
        rest = model.stripped[m.end():fn.close_off]
        if SEQ_VALIDATE_RE.search(rest):
            continue
        flagged_lines.add(line)
        ctx.report(
            "R7", m.start(),
            f"per-use descriptor field '{m.group(1)}' read with no "
            f"sequence re-validation before the function acts on it — a "
            f"reused descriptor can change generation under this snapshot "
            f"(validate with desc_seq_of/read_status after the read, or "
            f"annotate '// lfrc-lint: seq-owner' in owner-only context)")

    # (b) the decision CAS on a status word must carry the sequence.
    for m in ATOMIC_OP_RE.finditer(model.stripped):
        recv, op = m.group(1), m.group(2)
        if not op.startswith("compare_exchange"):
            continue
        if "status" not in recv:
            continue
        line = model.line_of(m.start())
        stmt_start = max(model.stripped.rfind(";", 0, m.start()),
                         model.stripped.rfind("{", 0, m.start()))
        lookback = model.stripped[
            max(stmt_start + 1, m.start() - STATUS_CAS_LOOKBACK):m.start()]
        argtext = balanced_args(model.stripped, m.end() - 1)
        stmt = lookback + (argtext or "")
        if re.search(r"\b(desc_seq_of|pack_status|seq_of_status)\s*\(", stmt):
            continue
        ctx.report(
            "R7", m.start(),
            f"decision CAS on '{recv}' does not carry the captured "
            f"descriptor sequence (no desc_seq_of/pack_status in the "
            f"statement) — a stale helper could conclude a later "
            f"generation's operation")


ALL_CHECKS = (check_r1, check_r2, check_r3, check_r4, check_r5,
              check_r6, check_r7)


def run_rules(model: SourceModel, relpath: str,
              rules: tuple[str, ...] = RULES):
    """Returns (findings, order_sites). order_sites feed the whole-run R6
    pairing resolution and the fence-pairing table."""
    ctx = RuleContext(model, relpath)
    for check in ALL_CHECKS:
        rule = check.__name__.split("_")[-1].upper()
        if rule in rules:
            check(ctx)
    ctx.findings.sort(key=lambda f: (f.line, f.rule))
    return ctx.findings, ctx.order_sites
