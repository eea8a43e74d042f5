"""The DSA's decoded burst plan charges exactly what the per-burst
``emit_burst`` + ``charge_vector`` loop charged.

Every burst the engine charges while running the registered workloads is
replayed, at the same moment and from copies of the same state, through
the reference loop kept below; the timing model, the cache hierarchy and
the DSA statistics must come out identical.  The same check runs on a
register-starved copy of each template, whose burst is rejected.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.dsa import engine as dsa_engine
from repro.dsa.engine import DynamicSIMDAssembler
from repro.dsa.template import LoopTemplate, TemplateReject
from repro.isa.neon import VDup, VDupImm, VInstr, VLoad, VStore
from repro.isa.operands import QReg, Reg
from repro.systems.setups import run_system
from repro.workloads import ALL_WORKLOADS, load

ORIGINAL = DynamicSIMDAssembler._charge_template_burst


# ---------------------------------------------------------------------------
# the reference: burst emission and charging as the engine did them before
# the plan existed — one fresh instruction list per segment, each
# instruction charged through the undecoded ``charge_vector``
# ---------------------------------------------------------------------------
def reference_emit_burst(
    t: LoopTemplate, start_addrs: dict[int, int], quads: int
) -> list[tuple[VInstr, int | None]]:
    out: list[tuple[VInstr, int | None]] = []
    qmap: dict[object, int] = {}
    next_q = [0]

    def alloc(key: object) -> int:
        if key not in qmap:
            if next_q[0] >= t.num_regs:
                raise TemplateReject("too many operations for the vector register file")
            qmap[key] = next_q[0]
            next_q[0] += 1
        return qmap[key]

    for node_id, node in enumerate(t.nodes):
        if node.kind == "invariant":
            out.append((VDup(QReg(alloc(("n", node_id))), Reg(node.reg or 0), t.dtype), None))
        elif node.kind == "const":
            out.append((VDupImm(QReg(alloc(("n", node_id))), int(node.value or 0), t.dtype), None))

    base = Reg(0)
    for k in range(quads):
        for pc in t.load_pcs:
            stream = t.streams[pc]
            q = alloc(("load", pc))
            addr = start_addrs[pc] + k * t.width_bytes
            out.append((VLoad(qd=QReg(q), base=base, dtype=stream.dtype), addr))
        for node_id, node in enumerate(t.nodes):
            if node.kind != "op":
                continue
            q = alloc(("n", node_id))
            srcs = [QReg(alloc(t._qkey(i))) for i in node.operands]
            out.append((t._vop(node, QReg(q), srcs), None))
        for root in t.stores:
            stream = t.streams[root.stream_pc]
            q = alloc(t._qkey(root.node))
            addr = start_addrs[root.stream_pc] + k * t.width_bytes
            out.append((VStore(qs=QReg(q), base=base, dtype=stream.dtype), addr))
    return out


def reference_charge(template, first_iter, quads, extra_segments, timing, hierarchy, stats):
    if quads <= 0:
        return
    segments = [(first_iter, quads)] + list(extra_segments or [])
    total = 0
    for seg_first, seg_quads in segments:
        if seg_quads <= 0:
            continue
        start_addrs: dict[int, int] = {}
        for pc, stream in template.streams.items():
            addr = stream.addr_at(seg_first)
            if addr is None:
                addr = stream.first_addr
            start_addrs[pc] = addr
        try:
            burst = reference_emit_burst(template, start_addrs, seg_quads)
        except TemplateReject:
            continue
        for instr, addr in burst:
            mem_latency = 0
            if addr is not None:
                mem_latency = hierarchy.access(addr, template.width_bytes, instr.is_store)
                stats.vector_mem_ops += 1
            else:
                stats.vector_arith_ops += 1
            timing.charge_vector(instr, mem_latency)
        total += len(burst)
    timing.end_vector_burst()
    stats.bursts_charged += 1
    stats.vector_instructions += total


# ---------------------------------------------------------------------------
def _state(timing, hierarchy, stats) -> tuple:
    scoreboard = {k: v for k, v in vars(timing).items() if k != "config"}
    caches = tuple(
        (cache.stats, cache._sets) for cache in (hierarchy.l1, hierarchy.l2)
    )
    return scoreboard, caches, hierarchy.dram_accesses, stats


def _charge_both(dsa, template, args) -> bool:
    """Charge ``template`` through the plan and through the reference,
    each on its own copy of the live state; True when the burst charged
    any instruction."""
    core = dsa.core
    live = (core.timing, core.hierarchy, dsa.stats)
    planned = copy.deepcopy(live)
    expected = copy.deepcopy(live)
    core.timing, core.hierarchy, dsa.stats = planned
    try:
        ORIGINAL(dsa, template, *args)
    finally:
        core.timing, core.hierarchy, dsa.stats = live
    reference_charge(template, *args, *expected)
    assert _state(*planned) == _state(*expected)
    return planned[2].vector_instructions > live[2].vector_instructions


def _run_checked(monkeypatch, workload: str, **run_kwargs) -> int:
    """Run ``workload`` on ``neon_dsa`` checking every burst; returns how
    many bursts charged instructions."""
    charged = 0

    def checked(self, template, first_iter, quads, extra_segments=None):
        nonlocal charged
        args = (first_iter, quads, extra_segments)
        charged += _charge_both(self, template, args)
        # no register at all: every burst is rejected, and charges nothing
        starved = replace(template, num_regs=0, burst_plan=None)
        assert not _charge_both(self, starved, args)
        ORIGINAL(self, template, first_iter, quads, extra_segments)

    monkeypatch.setattr(DynamicSIMDAssembler, "_charge_template_burst", checked)
    run_system("neon_dsa", load(workload, "test"), **run_kwargs)
    return charged


#: workloads whose loops never reach a vector burst at ``test`` scale
#: (utf8_validate abandons its loop, base64_decode never leaves tracing)
NO_BURSTS = {"base64_decode", "utf8_validate"}


@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_plan_charges_like_the_reference_loop(monkeypatch, workload):
    charged = _run_checked(monkeypatch, workload)
    if workload not in NO_BURSTS:
        assert charged, "no burst was checked"


@pytest.mark.parametrize("workload", ["rgb_gray", "gaussian"])
def test_plan_charges_like_the_reference_loop_at_vl512(monkeypatch, workload):
    assert _run_checked(monkeypatch, workload, backend="scalable", vl=512)


def test_plan_is_built_once_per_cached_template(monkeypatch):
    """Re-entered loops served by the DSA cache's fast path reuse the plan
    of the cached template instead of decoding their burst again."""
    built = []
    charges = []
    plan_init = dsa_engine._BurstPlan.__init__

    def counting_init(self, template, timing):
        built.append(template)
        plan_init(self, template, timing)

    def counting_charge(self, template, *args, **kwargs):
        charges.append(template.burst_plan)
        ORIGINAL(self, template, *args, **kwargs)

    monkeypatch.setattr(dsa_engine._BurstPlan, "__init__", counting_init)
    monkeypatch.setattr(DynamicSIMDAssembler, "_charge_template_burst", counting_charge)
    result = run_system("neon_dsa", load("matmul", "test"))
    assert result.dsa_stats.vectorized_invocations["cache_fast_path"] > 1
    assert len({id(t) for t in built}) == len(built)  # no template decoded twice
    assert len(charges) > len(built) >= 1
    assert sum(plan is None for plan in charges) <= len(built)
