"""Direct-mapped write-back/write-allocate data cache with a pipelined
core interface.

The cache mirrors the structure described in Sec. III of the paper:

* **Pending writes.**  An accepted store occupies the cache's write pipeline
  for ``write_pending_cycles`` cycles.  While a write is pending, a new
  request to the *same* line is a RAW hazard: the cache removes the request
  (deasserts ``done``) until the pending write has completed, stalling the
  core.  A new store while any write is pending stalls as well (single-slot
  store pipeline).
* **Refills.**  A miss starts a ``miss_latency``-cycle refill; the core is
  stalled (blocking cache).  On completion, a dirty victim is written back
  to memory and the line is filled (write-allocate merges the store data).
* **Kill semantics.**  ``kill`` aborts an in-flight refill *iff* the design
  variant cancels cache transactions on pipeline flushes
  (``refill_cancel_on_flush``).  The Meltdown-style variant completes the
  refill of a squashed load — the footprint covert channel.
* **Unconditional read port.**  ``line_rdata`` is the combinational read of
  the addressed line, available even when no transaction is issued — this
  is how the secret reaches the core's internal response buffer on a
  PMP-faulting hit (the paper's "cache forwards secret data" arrow in
  Fig. 1).

Addresses are *effective* addresses: the SoC's physical address space is
``dmem_words`` bytes and higher address bits are ignored consistently by
the cache, the memory and the PMP (no aliasing bypass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.hdl import (
    Circuit,
    Expr,
    MemoryArray,
    Reg,
    cat,
    const,
    mux,
    or_all,
    select,
)
from repro.soc.config import SocConfig


@dataclass
class CacheHandles:
    """Registers and key expressions of the data cache."""

    valid: List[Reg]
    dirty: List[Reg]
    tags: List[Reg]
    data: List[Reg]
    wpend_v: Reg
    wpend_idx: Reg
    wpend_ctr: Reg
    refilling: Reg
    rf_ctr: Reg
    rf_addr: Reg
    rf_we: Reg
    rf_wdata: Reg
    # Combinational interface back to the core:
    done: Expr = None          # request completes this cycle
    rdata: Expr = None         # load data when done
    line_rdata: Expr = None    # unconditional combinational line read
    hit: Expr = None
    raw_conflict: Expr = None
    busy_refill: Expr = None


def build_cache(
    c: Circuit,
    config: SocConfig,
    dmem: MemoryArray,
    req_valid: Expr,
    req_we: Expr,
    req_addr: Expr,
    req_wdata: Expr,
    kill: Expr,
) -> CacheHandles:
    """Instantiate the data cache inside circuit ``c``.

    ``req_addr`` is an effective address (``dmem_index_bits`` wide).
    ``kill`` is the pipeline-flush indication (trap commit).
    """
    ib = config.index_bits
    kb = config.dmem_index_bits
    tag_bits = max(1, kb - ib)
    lines = config.cache_lines
    pend_bits = max(1, config.write_pending_cycles.bit_length())
    rf_bits = max(1, config.miss_latency.bit_length())

    valid = [c.reg(f"dc_valid[{i}]", 1, init=0) for i in range(lines)]
    dirty = [c.reg(f"dc_dirty[{i}]", 1, init=0) for i in range(lines)]
    tags = [
        c.reg(f"dc_tag[{i}]", tag_bits, init=0) for i in range(lines)
    ]
    data = [
        c.reg(f"dc_data[{i}]", config.xlen, init=0, tags=("cache_data",))
        for i in range(lines)
    ]
    wpend_v = c.reg("dc_wpend_v", 1, init=0)
    wpend_idx = c.reg("dc_wpend_idx", ib, init=0)
    wpend_ctr = c.reg("dc_wpend_ctr", pend_bits, init=0)
    refilling = c.reg("dc_refilling", 1, init=0)
    rf_ctr = c.reg("dc_rf_ctr", rf_bits, init=0)
    rf_addr = c.reg("dc_rf_addr", kb, init=0)
    rf_we = c.reg("dc_rf_we", 1, init=0)
    rf_wdata = c.reg("dc_rf_wdata", config.xlen, init=0)

    handles = CacheHandles(
        valid=valid, dirty=dirty, tags=tags, data=data,
        wpend_v=wpend_v, wpend_idx=wpend_idx, wpend_ctr=wpend_ctr,
        refilling=refilling, rf_ctr=rf_ctr, rf_addr=rf_addr,
        rf_we=rf_we, rf_wdata=rf_wdata,
    )

    # ------------------------------------------------------------------
    # Request decode
    # ------------------------------------------------------------------
    idx = req_addr[0:ib] if ib < kb else req_addr
    tg = req_addr[ib:kb] if ib < kb else const(0, tag_bits)
    line_valid = select(idx, valid) if lines > 1 else valid[0]
    line_dirty = select(idx, dirty) if lines > 1 else dirty[0]
    line_tag = select(idx, tags) if lines > 1 else tags[0]
    line_data = select(idx, data) if lines > 1 else data[0]
    hit = line_valid & line_tag.eq(tg)

    # RAW hazard: a pending write blocks reads of the same line and any
    # further store (one store-pipeline slot).
    raw_read = wpend_v & wpend_idx.eq(idx) & ~req_we
    raw_write = wpend_v & req_we
    raw_conflict = req_valid & (raw_read | raw_write)

    # ------------------------------------------------------------------
    # Refill bookkeeping
    # ------------------------------------------------------------------
    rf_idx = rf_addr[0:ib] if ib < kb else rf_addr
    rf_tag = rf_addr[ib:kb] if ib < kb else const(0, tag_bits)
    refill_done = refilling & rf_ctr.eq(0)
    refill_mem_data = dmem.read(rf_addr)
    refill_fill_data = mux(rf_we, rf_wdata, refill_mem_data)
    if config.refill_cancel_on_flush:
        refill_aborted = kill & refilling
    else:
        refill_aborted = const(0, 1)
    refill_commits = refill_done & ~refill_aborted

    # Victim write-back to memory when the replaced line is dirty.
    victim_valid = select(rf_idx, valid) if lines > 1 else valid[0]
    victim_dirty = select(rf_idx, dirty) if lines > 1 else dirty[0]
    victim_tag = select(rf_idx, tags) if lines > 1 else tags[0]
    victim_data = select(rf_idx, data) if lines > 1 else data[0]
    wb_en = refill_commits & victim_valid & victim_dirty
    wb_addr = cat(rf_idx, victim_tag) if ib < kb else rf_idx
    dmem.write(wb_addr, victim_data, wb_en)

    # ------------------------------------------------------------------
    # Completion / acceptance
    # ------------------------------------------------------------------
    can_accept = req_valid & ~refilling & ~raw_conflict
    write_hit_accept = can_accept & req_we & hit
    read_hit_done = can_accept & ~req_we & hit
    miss_start = can_accept & ~hit
    refill_serves_req = (
        refill_commits & req_valid & req_addr.eq(rf_addr)
    )

    done = read_hit_done | write_hit_accept | refill_serves_req
    rdata = mux(refilling, refill_fill_data, line_data)

    handles.done = done
    handles.rdata = rdata
    handles.line_rdata = line_data
    handles.hit = hit
    handles.raw_conflict = raw_conflict
    handles.busy_refill = refilling

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------
    for i in range(lines):
        sel_req = idx.eq(const(i, ib)) if ib > 0 else const(1, 1)
        sel_rf = rf_idx.eq(const(i, ib)) if ib > 0 else const(1, 1)
        fill_here = refill_commits & sel_rf
        write_here = write_hit_accept & sel_req
        c.next(
            valid[i],
            mux(fill_here, const(1, 1), valid[i]),
        )
        c.next(
            dirty[i],
            mux(fill_here, rf_we, mux(write_here, const(1, 1), dirty[i])),
        )
        c.next(tags[i], mux(fill_here, rf_tag, tags[i]))
        c.next(
            data[i],
            mux(fill_here, refill_fill_data,
                mux(write_here, req_wdata, data[i])),
        )

    # Pending-write slot: set on any accepted store (hit or allocate).
    store_accept = write_hit_accept | (refill_serves_req & rf_we)
    pend_init = const(config.write_pending_cycles - 1, pend_bits)
    pend_ticking = wpend_v & wpend_ctr.ne(0)
    c.next(
        wpend_v,
        mux(store_accept, const(1, 1),
            mux(wpend_v & wpend_ctr.eq(0), const(0, 1), wpend_v)),
    )
    c.next(wpend_idx, mux(store_accept, idx, wpend_idx))
    c.next(
        wpend_ctr,
        mux(store_accept, pend_init,
            mux(pend_ticking, wpend_ctr - 1, wpend_ctr)),
    )

    # Refill controller.
    rf_lat = const(config.miss_latency - 1, rf_bits)
    c.next(
        refilling,
        mux(refill_aborted, const(0, 1),
            mux(refill_done, const(0, 1),
                mux(miss_start, const(1, 1), refilling))),
    )
    rf_ctr_next = mux(miss_start, rf_lat,
                      mux(refilling & rf_ctr.ne(0), rf_ctr - 1, rf_ctr))
    # An aborted refill clears its countdown so the controller returns to
    # a clean idle state (keeps the protocol monitor a true invariant).
    c.next(rf_ctr, mux(refill_aborted, const(0, rf_bits), rf_ctr_next))
    c.next(rf_addr, mux(miss_start, req_addr, rf_addr))
    c.next(rf_we, mux(miss_start, req_we, rf_we))
    c.next(rf_wdata, mux(miss_start, req_wdata, rf_wdata))

    return handles
