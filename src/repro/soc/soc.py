"""The SoC: in-order 5-stage pipeline + data cache + PMP + memories.

Pipeline stages: IF, ID, EX, M, WB.

* Branches resolve in EX (two squashed slots on taken branches).
* Loads/stores issue to the data cache in M; the PMP check happens in M in
  parallel with the cache access.  A PMP-faulting *hit* still places the
  line's data in the core's response buffer (``resp_buf``) — the internal,
  program-invisible buffer of Sec. III — but never initiates a cache/memory
  transaction, so an uncached secret cannot be pulled in by user code.
* Exceptions, ECALL and MRET commit at WB and flush the pipeline.
* Forwarding: EX receives results from M (ALU results always; load data
  only in the ``mem_forward_bypass`` variants — the Orc "optimization")
  and from WB (gated by a faulting instruction's cancelled write-back).
  A write-back bypass feeds the register read in ID.  Without the bypass,
  a two-cycle load-use interlock covers the response-buffer latency.
* Trap redirection waits for the memory stage to drain when
  ``flush_waits_for_mem`` (the Orc covert channel: an uncancellable
  squashed transaction serializes trap entry behind the RAW-hazard drain).

The module exposes every register the UPEC analysis needs, plus the
constraint expressions of the paper's interval property (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.hdl import (
    Circuit,
    Expr,
    MemoryArray,
    Reg,
    and_all,
    cat,
    const,
    mux,
    or_all,
    select,
    sext,
    zext,
)
from repro.soc import isa
from repro.soc.cache import CacheHandles, build_cache
from repro.soc.config import SocConfig
from repro.soc.pmp import (
    PmpHandles,
    build_pmp_regs,
    pmp_access_ok,
    pmp_write_enables,
    protection_invariant,
)

XLEN = isa.XLEN


@dataclass
class Soc:
    """A built SoC: circuit plus handles for analysis and simulation."""

    config: SocConfig
    circuit: Circuit
    # Architectural state
    pc: Reg = None
    regs: List[Reg] = field(default_factory=list)  # x1..x7
    mode: Reg = None
    mepc: Reg = None
    mcause: Reg = None
    cyc: Reg = None
    pmp: PmpHandles = None
    # Memories
    imem: MemoryArray = None
    dmem: MemoryArray = None
    # Microarchitectural state
    ifid_valid: Reg = None
    ifid_pc: Reg = None
    ifid_instr: Reg = None
    idex: Dict[str, Reg] = field(default_factory=dict)
    exmem: Dict[str, Reg] = field(default_factory=dict)
    memwb: Dict[str, Reg] = field(default_factory=dict)
    resp_buf: Reg = None
    cache: CacheHandles = None
    # Key probes (combinational expressions)
    probes: Dict[str, Expr] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived facts about the protected location
    # ------------------------------------------------------------------
    @property
    def secret_eff_addr(self) -> int:
        return self.config.secret_addr & (self.config.dmem_words - 1)

    @property
    def secret_line_index(self) -> int:
        return self.config.line_index(self.config.secret_addr)

    @property
    def secret_line_tag(self) -> int:
        return self.secret_eff_addr >> self.config.index_bits

    @property
    def secret_mem_reg(self) -> Reg:
        """The dmem word holding the secret data D."""
        return self.dmem[self.secret_eff_addr]

    @property
    def secret_cache_data_reg(self) -> Reg:
        """The cache data word that can hold the cached copy of D."""
        return self.cache.data[self.secret_line_index]

    # ------------------------------------------------------------------
    # Register classification for UPEC
    # ------------------------------------------------------------------
    def arch_regs(self) -> List[Reg]:
        return self.circuit.arch_regs()

    def cache_data_regs(self) -> List[Reg]:
        return self.circuit.regs_with_tag("cache_data")

    def micro_regs(self) -> List[Reg]:
        """micro_soc_state (Def. 1): all logic state (memory excluded)."""
        return [
            r for r in self.circuit.regs.values() if "memory" not in r.tags
        ]

    # ------------------------------------------------------------------
    # UPEC constraint expressions (Fig. 4)
    # ------------------------------------------------------------------
    def secret_data_protected(self) -> Expr:
        """The PMP shields the protected location and is locked."""
        return protection_invariant(self.config, self.pmp, self.config.secret_addr)

    def no_ongoing_protected_access(self) -> Expr:
        """Constraint 1: no in-flight refill reads the protected location."""
        secret = const(self.secret_eff_addr, self.config.dmem_index_bits)
        cache = self.cache
        ongoing_load = cache.refilling & ~cache.rf_we & cache.rf_addr.eq(secret)
        return ~ongoing_load

    def secure_system_software(self) -> Expr:
        """Constraint 3: system software never loads the secret — unless
        the load is invalid at the ISA level (the paper's case split: a
        squashed kernel load, e.g. in the shadow of an exception or MRET,
        is real microarchitectural behaviour and stays in the model).

        In this in-order pipeline an instruction in M is squashed exactly
        when an older trap is pending in WB (``trap_req``), so the
        exclusion applies to M-stage kernel loads of the secret without a
        concurrent pending trap.
        """
        secret = const(self.secret_eff_addr, self.config.dmem_index_bits)
        kernel_load = (
            self.mode.eq(isa.MODE_MACHINE)
            & self.probes["m_valid"]
            & self.probes["m_is_load"]
            & self.probes["m_eff_addr"].eq(secret)
            & ~self.probes["trap_req"]
        )
        return ~kernel_load

    def cache_monitor_ok(self) -> Expr:
        """Constraint 2: the cache controller is in a protocol-compliant
        state (built by :mod:`repro.core.monitor`)."""
        from repro.core.monitor import cache_protocol_ok

        return cache_protocol_ok(self)

    def secret_cached_expr(self) -> Expr:
        """The cache holds a valid copy of the secret (scenario 'D in cache')."""
        idx = self.secret_line_index
        return self.cache.valid[idx] & self.cache.tags[idx].eq(
            const(self.secret_line_tag, self.config.tag_bits)
        )


def build_soc(config: SocConfig) -> Soc:
    """Construct the SoC circuit for a configuration/variant."""
    c = Circuit(f"soc_{config.name}")
    soc = Soc(config=config, circuit=c)
    kb = config.dmem_index_bits

    # ------------------------------------------------------------------
    # State declaration
    # ------------------------------------------------------------------
    pc = c.reg("pc", XLEN, init=0, arch=True)
    xregs = [
        c.reg(f"x{i}", XLEN, init=0, arch=True) for i in range(1, isa.NUM_REGS)
    ]
    mode = c.reg("mode", 1, init=isa.MODE_MACHINE, arch=True)
    mepc = c.reg("mepc", XLEN, init=0, arch=True)
    mcause = c.reg("mcause", 3, init=0, arch=True)
    cyc = c.reg("cyc", config.counter_width, init=0, arch=True)
    pmp = build_pmp_regs(c, config)

    imem = MemoryArray(
        c, "imem", depth=config.imem_words, width=isa.INSTR_BITS,
        init=0, tags=("memory", "imem"),
    )
    dmem = MemoryArray(
        c, "dmem", depth=config.dmem_words, width=XLEN,
        init=0, tags=("memory", "dmem"),
    )

    ifid_valid = c.reg("ifid_valid", 1, init=0)
    ifid_pc = c.reg("ifid_pc", XLEN, init=0)
    ifid_instr = c.reg("ifid_instr", isa.INSTR_BITS, init=0)

    idex = {
        "valid": c.reg("idex_valid", 1, init=0),
        "pc": c.reg("idex_pc", XLEN, init=0),
        "op": c.reg("idex_op", 4, init=0),
        "rd": c.reg("idex_rd", 3, init=0),
        "rs1": c.reg("idex_rs1", 3, init=0),
        "rs2": c.reg("idex_rs2", 3, init=0),
        "funct": c.reg("idex_funct", 3, init=0),
        "imm6": c.reg("idex_imm6", 6, init=0),
        "imm8": c.reg("idex_imm8", 8, init=0),
        "csr": c.reg("idex_csr", 6, init=0),
        "rs1_val": c.reg("idex_rs1_val", XLEN, init=0),
        "rs2_val": c.reg("idex_rs2_val", XLEN, init=0),
    }
    exmem = {
        "valid": c.reg("exmem_valid", 1, init=0),
        "pc": c.reg("exmem_pc", XLEN, init=0),
        "op": c.reg("exmem_op", 4, init=0),
        "rd": c.reg("exmem_rd", 3, init=0),
        "csr": c.reg("exmem_csr", 6, init=0),
        "result": c.reg("exmem_result", XLEN, init=0),
        "sdata": c.reg("exmem_sdata", XLEN, init=0),
    }
    memwb = {
        "valid": c.reg("memwb_valid", 1, init=0),
        "pc": c.reg("memwb_pc", XLEN, init=0),
        "op": c.reg("memwb_op", 4, init=0),
        "rd": c.reg("memwb_rd", 3, init=0),
        "csr": c.reg("memwb_csr", 6, init=0),
        "result": c.reg("memwb_result", XLEN, init=0),
        "sdata": c.reg("memwb_sdata", XLEN, init=0),
        "exc": c.reg("memwb_exc", 1, init=0),
        "cause": c.reg("memwb_cause", 3, init=0),
    }
    resp_buf = c.reg("resp_buf", XLEN, init=0)

    soc.pc, soc.regs, soc.mode, soc.mepc, soc.mcause, soc.cyc = (
        pc, xregs, mode, mepc, mcause, cyc,
    )
    soc.pmp, soc.imem, soc.dmem = pmp, imem, dmem
    soc.ifid_valid, soc.ifid_pc, soc.ifid_instr = ifid_valid, ifid_pc, ifid_instr
    soc.idex, soc.exmem, soc.memwb, soc.resp_buf = idex, exmem, memwb, resp_buf

    # ------------------------------------------------------------------
    # WB stage (oldest instruction): trap/commit decisions
    # ------------------------------------------------------------------
    def op_is(reg: Reg, opcode: int) -> Expr:
        return reg.eq(const(opcode, 4))

    wb_valid = memwb["valid"]
    wb_is_load = op_is(memwb["op"], isa.OP_LB)
    wb_is_csrw = op_is(memwb["op"], isa.OP_CSRW)
    wb_is_mret = op_is(memwb["op"], isa.OP_MRET) & mode.eq(isa.MODE_MACHINE)
    wb_is_ecall = op_is(memwb["op"], isa.OP_ECALL)
    wb_writes_rd = or_all([
        op_is(memwb["op"], o)
        for o in (isa.OP_LI, isa.OP_ADDI, isa.OP_ALU, isa.OP_LB,
                  isa.OP_JAL, isa.OP_CSRR)
    ]) & memwb["rd"].ne(0)
    trap_exc = wb_valid & memwb["exc"]
    trap_ecall = wb_valid & ~memwb["exc"] & wb_is_ecall
    trap_mret = wb_valid & ~memwb["exc"] & wb_is_mret
    trap_req = trap_exc | trap_ecall | trap_mret

    rf_we = wb_valid & ~memwb["exc"] & wb_writes_rd
    wb_data = mux(wb_is_load, resp_buf, memwb["result"])

    # ------------------------------------------------------------------
    # M stage: PMP check + cache transaction
    # ------------------------------------------------------------------
    m_valid = exmem["valid"]
    m_is_load = op_is(exmem["op"], isa.OP_LB)
    m_is_store = op_is(exmem["op"], isa.OP_SB)
    m_is_mem = m_is_load | m_is_store
    m_eff_addr = exmem["result"][0:kb] if kb < XLEN else exmem["result"]
    m_pmp_ok = pmp_access_ok(config, pmp, m_eff_addr, m_is_store, mode)
    m_exc = m_valid & m_is_mem & ~m_pmp_ok

    # The secure design withdraws the request of a squashed instruction;
    # the bypass variants have already committed it (Sec. III).
    req_gate = const(1, 1) if config.mem_forward_bypass else ~trap_req
    req_valid = m_valid & m_is_mem & m_pmp_ok & req_gate
    cache_kill = (
        const(0, 1) if config.flush_waits_for_mem else trap_req
    )
    cache = build_cache(
        c, config, dmem,
        req_valid=req_valid,
        req_we=m_is_store,
        req_addr=m_eff_addr,
        req_wdata=exmem["sdata"],
        kill=cache_kill,
    )
    soc.cache = cache

    stall_mem = req_valid & ~cache.done
    if config.flush_waits_for_mem:
        stall_eff = stall_mem              # Orc: trap waits for the drain
    else:
        stall_eff = stall_mem & ~trap_req  # flush cancels the core-side wait
    do_trap = trap_req & ~stall_eff

    # Load value observed by the core this cycle: a completing legal load
    # reads the cache response; a PMP-faulting hit still exposes the line
    # (the covert-channel source).
    m_load_value = mux(m_exc, cache.line_rdata, cache.rdata)
    m_load_done = m_valid & m_is_load & (m_exc | cache.done)

    # ------------------------------------------------------------------
    # EX stage: forwarding, ALU, branches, CSR read
    # ------------------------------------------------------------------
    ex_valid = idex["valid"]
    ex_op = idex["op"]

    def ex_op_is(opcode: int) -> Expr:
        return ex_op.eq(const(opcode, 4))

    exmem_writes_rd = or_all([
        op_is(exmem["op"], o)
        for o in (isa.OP_LI, isa.OP_ADDI, isa.OP_ALU, isa.OP_JAL, isa.OP_CSRR)
    ])

    def forward(idx_reg: Reg, base: Reg) -> Expr:
        value = base
        # Farthest first; the nearest (M-stage) match overrides below.
        wb_hit = rf_we & memwb["rd"].eq(idx_reg) & idx_reg.ne(0)
        value = mux(wb_hit, wb_data, value)
        m_alu_hit = (
            m_valid & exmem_writes_rd
            & exmem["rd"].eq(idx_reg) & idx_reg.ne(0)
        )
        value = mux(m_alu_hit, exmem["result"], value)
        if config.mem_forward_bypass:
            # The Orc bypass: forward cache read data straight from M,
            # not gated by the (about-to-fire) exception.
            m_load_hit = (
                m_valid & m_is_load & exmem["rd"].eq(idx_reg) & idx_reg.ne(0)
            )
            value = mux(m_load_hit, m_load_value, value)
        return value

    ex_a = forward(idex["rs1"], idex["rs1_val"])
    ex_b = forward(idex["rs2"], idex["rs2_val"])
    imm_s = sext(idex["imm6"], XLEN)

    alu_results = [
        ex_a + ex_b,            # F_ADD
        ex_a - ex_b,            # F_SUB
        ex_a & ex_b,            # F_AND
        ex_a | ex_b,            # F_OR
        ex_a ^ ex_b,            # F_XOR
        zext(ex_a.ult(ex_b), XLEN),  # F_SLTU
        const(0, XLEN),
        const(0, XLEN),
    ]
    alu_out = select(idex["funct"], alu_results)

    def csr_read_value() -> Expr:
        csr = idex["csr"]
        value = const(0, XLEN)
        value = mux(csr.eq(isa.CSR_CYCLE), cyc[0:XLEN], value)
        value = mux(csr.eq(isa.CSR_MEPC), mepc, value)
        value = mux(csr.eq(isa.CSR_MCAUSE), zext(mcause, XLEN), value)
        value = mux(csr.eq(isa.CSR_PMPADDR0), pmp.pmpaddr0, value)
        value = mux(csr.eq(isa.CSR_PMPCFG0), zext(pmp.pmpcfg0, XLEN), value)
        value = mux(csr.eq(isa.CSR_PMPADDR1), pmp.pmpaddr1, value)
        value = mux(csr.eq(isa.CSR_PMPCFG1), zext(pmp.pmpcfg1, XLEN), value)
        return value

    addr_calc = ex_a + imm_s
    link = idex["pc"] + 1
    ex_result = const(0, XLEN)
    ex_result = mux(ex_op_is(isa.OP_LI), idex["imm8"], ex_result)
    ex_result = mux(ex_op_is(isa.OP_ADDI), addr_calc, ex_result)
    ex_result = mux(ex_op_is(isa.OP_ALU), alu_out, ex_result)
    ex_result = mux(ex_op_is(isa.OP_LB) | ex_op_is(isa.OP_SB), addr_calc, ex_result)
    ex_result = mux(ex_op_is(isa.OP_JAL), link, ex_result)
    ex_result = mux(ex_op_is(isa.OP_CSRR), csr_read_value(), ex_result)

    ex_sdata = mux(ex_op_is(isa.OP_SB), ex_b,
                   mux(ex_op_is(isa.OP_CSRW), ex_a, const(0, XLEN)))

    br_taken = ex_valid & (
        (ex_op_is(isa.OP_BEQ) & ex_a.eq(ex_b))
        | (ex_op_is(isa.OP_BNE) & ex_a.ne(ex_b))
        | ex_op_is(isa.OP_JAL)
    )
    br_target = idex["pc"] + imm_s

    # ------------------------------------------------------------------
    # ID stage: decode, register read, hazards
    # ------------------------------------------------------------------
    instr = ifid_instr
    id_op = instr[12:16]
    id_rd = instr[9:12]
    id_rs1 = instr[6:9]
    id_rs2 = mux(id_op.eq(isa.OP_ALU), instr[3:6], instr[9:12])
    id_funct = instr[0:3]
    id_imm6 = instr[0:6]
    id_imm8 = instr[0:8]
    id_csr = instr[0:6]

    def rf_read(idx: Expr) -> Expr:
        raw = select(idx, [const(0, XLEN)] + list(xregs))
        # Write-back bypass: a value retiring this cycle is visible to ID.
        bypass = rf_we & memwb["rd"].eq(idx) & idx.ne(0)
        return mux(bypass, wb_data, raw)

    id_rs1_val = rf_read(id_rs1)
    id_rs2_val = rf_read(id_rs2)

    def id_op_is(opcode: int) -> Expr:
        return id_op.eq(const(opcode, 4))

    id_uses_rs1 = or_all([
        id_op_is(o) for o in (isa.OP_ADDI, isa.OP_ALU, isa.OP_LB, isa.OP_SB,
                              isa.OP_BEQ, isa.OP_BNE, isa.OP_CSRW)
    ])
    id_uses_rs2 = or_all([
        id_op_is(o) for o in (isa.OP_ALU, isa.OP_SB, isa.OP_BEQ, isa.OP_BNE)
    ])

    def load_dep(stage_valid: Expr, stage_op: Reg, stage_rd: Reg) -> Expr:
        is_load = stage_op.eq(const(isa.OP_LB, 4))
        dep1 = id_uses_rs1 & stage_rd.eq(id_rs1)
        dep2 = id_uses_rs2 & stage_rd.eq(id_rs2)
        return stage_valid & is_load & stage_rd.ne(0) & (dep1 | dep2)

    if config.mem_forward_bypass:
        interlock = const(0, 1)
    else:
        interlock = ifid_valid & (
            load_dep(idex["valid"], idex["op"], idex["rd"])
            | load_dep(exmem["valid"], exmem["op"], exmem["rd"])
        )
    csrw_in_flight = (
        (idex["valid"] & ex_op_is(isa.OP_CSRW))
        | (exmem["valid"] & op_is(exmem["op"], isa.OP_CSRW))
        | (memwb["valid"] & wb_is_csrw)
    )
    csr_stall = ifid_valid & id_op_is(isa.OP_CSRR) & csrw_in_flight
    id_stall = interlock | csr_stall

    # ------------------------------------------------------------------
    # IF stage
    # ------------------------------------------------------------------
    fetch_instr = imem.read(pc[0:config.imem_index_bits])

    # ------------------------------------------------------------------
    # Next-state logic
    # ------------------------------------------------------------------
    trap_target = mux(trap_mret, mepc, const(config.trap_vector, XLEN))
    pc_plus1 = pc + 1
    pc_next = pc_plus1
    pc_next = mux(id_stall, pc, pc_next)
    pc_next = mux(br_taken, br_target, pc_next)
    pc_next = mux(stall_eff, pc, pc_next)
    pc_next = mux(do_trap, trap_target, pc_next)
    c.next(pc, pc_next)

    # IF/ID
    ifid_valid_next = const(1, 1)
    ifid_valid_next = mux(id_stall, ifid_valid, ifid_valid_next)
    ifid_valid_next = mux(br_taken, const(0, 1), ifid_valid_next)
    ifid_valid_next = mux(stall_eff, ifid_valid, ifid_valid_next)
    ifid_valid_next = mux(do_trap, const(0, 1), ifid_valid_next)
    c.next(ifid_valid, ifid_valid_next)
    hold_if = stall_eff | id_stall
    c.next(ifid_pc, mux(hold_if, ifid_pc, pc))
    c.next(ifid_instr, mux(hold_if, ifid_instr, fetch_instr))

    # ID/EX
    idex_valid_next = ifid_valid
    idex_valid_next = mux(id_stall, const(0, 1), idex_valid_next)
    idex_valid_next = mux(br_taken, const(0, 1), idex_valid_next)
    idex_valid_next = mux(stall_eff, idex["valid"], idex_valid_next)
    idex_valid_next = mux(do_trap, const(0, 1), idex_valid_next)
    c.next(idex["valid"], idex_valid_next)
    for name, value in [
        ("pc", ifid_pc), ("op", id_op), ("rd", id_rd), ("rs1", id_rs1),
        ("rs2", id_rs2), ("funct", id_funct), ("imm6", id_imm6),
        ("imm8", id_imm8), ("csr", id_csr),
    ]:
        c.next(idex[name], mux(stall_eff, idex[name], value))
    # While the pipeline is frozen by the memory stage, the instruction in
    # EX captures its forwarded operands — its producers may retire before
    # the stall clears and the forwarding paths would go stale.
    c.next(idex["rs1_val"], mux(stall_eff, ex_a, id_rs1_val))
    c.next(idex["rs2_val"], mux(stall_eff, ex_b, id_rs2_val))

    # EX/M
    exmem_valid_next = idex["valid"]
    exmem_valid_next = mux(stall_eff, exmem["valid"], exmem_valid_next)
    exmem_valid_next = mux(do_trap, const(0, 1), exmem_valid_next)
    c.next(exmem["valid"], exmem_valid_next)
    for name, value in [
        ("pc", idex["pc"]), ("op", ex_op), ("rd", idex["rd"]),
        ("csr", idex["csr"]), ("result", ex_result), ("sdata", ex_sdata),
    ]:
        c.next(exmem[name], mux(stall_eff, exmem[name], value))

    # M/WB
    memwb_valid_next = m_valid
    memwb_valid_next = mux(stall_eff, memwb["valid"] & trap_req, memwb_valid_next)
    memwb_valid_next = mux(do_trap, const(0, 1), memwb_valid_next)
    c.next(memwb["valid"], memwb_valid_next)
    m_cause = mux(m_is_store, const(isa.CAUSE_STORE_FAULT, 3),
                  const(isa.CAUSE_LOAD_FAULT, 3))
    hold_wb = stall_eff  # while the M stage drains, WB holds the trap
    for name, value in [
        ("pc", exmem["pc"]), ("op", exmem["op"]), ("rd", exmem["rd"]),
        ("csr", exmem["csr"]), ("result", exmem["result"]),
        ("sdata", exmem["sdata"]), ("exc", m_exc), ("cause", m_cause),
    ]:
        c.next(memwb[name], mux(hold_wb, memwb[name], value))

    # Response buffer (the internal buffer of Sec. III).
    c.next(resp_buf, mux(m_load_done, m_load_value, resp_buf))

    # Register file
    for i, reg in enumerate(xregs, start=1):
        hit = rf_we & memwb["rd"].eq(const(i, 3))
        c.next(reg, mux(hit, wb_data, reg))

    # CSRs / trap state
    csr_commit = wb_valid & ~memwb["exc"] & wb_is_csrw & mode.eq(
        isa.MODE_MACHINE
    )
    csr_wdata = memwb["sdata"]

    def csr_write_en(addr: int) -> Expr:
        return csr_commit & memwb["csr"].eq(const(addr, 6))

    take_trap = do_trap & (trap_exc | trap_ecall)
    mepc_next = mux(csr_write_en(isa.CSR_MEPC), csr_wdata, mepc)
    mepc_next = mux(take_trap, memwb["pc"], mepc_next)
    c.next(mepc, mepc_next)
    trap_cause = mux(trap_exc, memwb["cause"], const(isa.CAUSE_ECALL, 3))
    mcause_next = mux(csr_write_en(isa.CSR_MCAUSE), csr_wdata[0:3], mcause)
    mcause_next = mux(take_trap, trap_cause, mcause_next)
    c.next(mcause, mcause_next)
    mode_next = mux(do_trap & trap_mret, const(isa.MODE_USER, 1), mode)
    mode_next = mux(take_trap, const(isa.MODE_MACHINE, 1), mode_next)
    c.next(mode, mode_next)

    pmp_we = pmp_write_enables(config, pmp)
    for addr, reg in pmp.regs().items():
        enable = csr_write_en(addr) & pmp_we[addr]
        value = csr_wdata[0:4] if reg.width == 4 else csr_wdata
        c.next(reg, mux(enable, value, reg))

    c.next(cyc, cyc + 1)

    # ------------------------------------------------------------------
    # Probes & outputs
    # ------------------------------------------------------------------
    soc.probes = {
        "m_valid": m_valid,
        "m_is_load": m_is_load,
        "m_is_store": m_is_store,
        "m_eff_addr": m_eff_addr,
        "m_pmp_ok": m_pmp_ok,
        "m_exc": m_exc,
        "req_valid": req_valid,
        "cache_done": cache.done,
        "stall_mem": stall_mem,
        "stall_eff": stall_eff,
        "trap_req": trap_req,
        "do_trap": do_trap,
        "br_taken": br_taken,
        "interlock": interlock,
        "rf_we": rf_we,
        "wb_data": wb_data,
        "m_load_value": m_load_value,
    }
    c.output("pc_out", pc)
    c.output("mode_out", mode)
    c.output("cyc_out", cyc)
    c.output("do_trap", do_trap)
    c.output("stall_mem", stall_mem)
    c.finalize()
    return soc
