"""SoC configuration and design variants.

The SoC is a parameterized single-core system: an in-order 5-stage pipeline
(IF, ID, EX, M, WB), a direct-mapped write-back/write-allocate data cache
with a pipelined core interface (pending-write RAW hazard handling), main
memory, and RISC-V-style physical memory protection (PMP) with TOR regions
and lock bits.

Four design variants mirror Sec. VII of the paper.  They differ in exactly
four microarchitectural decisions:

``mem_forward_bypass``
    Forward cache read data combinationally from the M stage to a dependent
    instruction in EX (the paper's 17-LoC "performance optimization" that
    removes the stall between consecutive dependent loads).  When off, load
    data is only forwarded from the WB-stage response buffer and a one-cycle
    load-use interlock is inserted.
``refill_cancel_on_flush``
    Abort an in-flight cache line refill when the pipeline is flushed by an
    exception.  Turning this off creates the Meltdown-style footprint
    channel of Fig. 1 (left).
``flush_waits_for_mem``
    Trap redirection waits for the memory stage to drain.  When the cache
    interface cannot cancel an accepted transaction (the Orc decision), a
    squashed dependent load serializes trap entry behind the RAW-hazard
    drain — the Orc timing channel of Sec. III.
``pmp_tor_lock``
    Implement the ISA rule that locking a TOR range's end entry implicitly
    locks the start-address register of the range.  RocketChip's omission
    of this rule is the real bug of Sec. VII-C.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class SocConfig:
    """Parameters of one SoC instance."""

    xlen: int = 8                 # data and address width
    imem_words: int = 32          # instruction memory depth (16-bit words)
    dmem_words: int = 16          # data memory depth (bytes)
    cache_lines: int = 4          # direct-mapped, one byte per line
    write_pending_cycles: int = 4  # store occupies the cache write pipe
    miss_latency: int = 4         # cycles from miss to line fill
    counter_width: int = 16       # cycle counter CSR width
    trap_vector: int = 1          # PC of the trap handler (word 0 = reset jump)
    secret_addr: int = 12         # protected location A (must be < 2**xlen)
    # --- variant knobs -------------------------------------------------
    mem_forward_bypass: bool = False
    refill_cancel_on_flush: bool = True
    flush_waits_for_mem: bool = False
    pmp_tor_lock: bool = True
    name: str = "secure"

    def __post_init__(self) -> None:
        if self.xlen != 8:
            raise ValueError("only xlen=8 is supported by the RV8 ISA")
        for field_name in ("imem_words", "dmem_words", "cache_lines"):
            if not _is_pow2(getattr(self, field_name)):
                raise ValueError(f"{field_name} must be a power of two")
        if self.cache_lines > self.dmem_words:
            raise ValueError("cache_lines must not exceed dmem_words")
        if self.cache_lines < 2:
            raise ValueError("cache_lines must be at least 2")
        if not 0 <= self.secret_addr < 2 ** self.xlen:
            raise ValueError("secret_addr out of address range")
        if self.write_pending_cycles < 2:
            raise ValueError("write_pending_cycles must be at least 2")
        if self.miss_latency < 1:
            raise ValueError("miss_latency must be at least 1")
        if self.counter_width < self.xlen:
            raise ValueError("counter_width must be at least xlen")

    # --- derived geometry ----------------------------------------------
    @property
    def index_bits(self) -> int:
        return (self.cache_lines - 1).bit_length()

    @property
    def tag_bits(self) -> int:
        """Tag width over *effective* addresses (the SoC's physical space
        is dmem_words bytes; high address bits are ignored consistently)."""
        return max(1, self.dmem_index_bits - self.index_bits)

    @property
    def imem_index_bits(self) -> int:
        return (self.imem_words - 1).bit_length()

    @property
    def dmem_index_bits(self) -> int:
        return (self.dmem_words - 1).bit_length()

    def line_index(self, addr: int) -> int:
        """Cache line index of an address (its low bits)."""
        return addr & (self.cache_lines - 1)

    def with_variant(self, **kwargs) -> "SocConfig":
        return replace(self, **kwargs)

    # --- the four designs of the experiments ----------------------------
    @classmethod
    def secure(cls, **kwargs) -> "SocConfig":
        """The original-RocketChip analogue: no covert channel."""
        return cls(name="secure", **kwargs)

    @classmethod
    def orc(cls, **kwargs) -> "SocConfig":
        """Orc-vulnerable: response-buffer bypass + uncancellable cache
        transactions serialize trap entry behind the RAW-hazard drain."""
        return cls(
            name="orc",
            mem_forward_bypass=True,
            flush_waits_for_mem=True,
            **kwargs,
        )

    @classmethod
    def meltdown(cls, **kwargs) -> "SocConfig":
        """Meltdown-style vulnerable: refills of squashed loads complete."""
        return cls(
            name="meltdown",
            mem_forward_bypass=True,
            refill_cancel_on_flush=False,
            **kwargs,
        )

    @classmethod
    def pmp_bug(cls, **kwargs) -> "SocConfig":
        """ISA-incompliant PMP: TOR lock does not cover the start entry."""
        return cls(name="pmp_bug", pmp_tor_lock=False, **kwargs)


#: The design variants of the experiments, by constructor name (the CLI
#: and the scenario sweeps both enumerate this).
VARIANTS = ("secure", "orc", "meltdown", "pmp_bug")


#: The small geometry used by the formal (UPEC) experiments — the SAT
#: problems grow with memory sizes and window length, so the formal runs
#: use the minimal geometry that still exhibits every covert channel.
FORMAL_CONFIG_KWARGS = dict(
    imem_words=8,
    dmem_words=16,
    cache_lines=4,
    write_pending_cycles=3,
    miss_latency=3,
    counter_width=8,
    secret_addr=12,
)

#: A larger geometry used by the simulation-level attack demos.
SIM_CONFIG_KWARGS = dict(
    imem_words=64,
    dmem_words=64,
    cache_lines=16,
    write_pending_cycles=6,
    miss_latency=8,
    counter_width=16,
    secret_addr=40,
)
