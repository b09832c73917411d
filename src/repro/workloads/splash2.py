"""Synthetic signatures of the paper's 16 applications.

The paper evaluates SPLASH2 (barnes, cholesky, fmm, fft, lu, ocean,
radiosity, radix, raytrace, water-spatial) plus em3d, ilink, jacobi,
mp3d, shallow and tsp on DEC Alpha binaries.  We cannot run those
binaries; per DESIGN.md each application is replaced by a *signature* —
a parameterized memory-operation generator reproducing its published
traffic character:

* **miss rate** via a hot-set / cold-stream split: private accesses hit
  a small always-resident hot set except for a controlled cold fraction
  that cycles a region far larger than the L1 (an L1 miss that hits in
  L2 after warm-up).  Paper §6: the L1 is deliberately scaled so miss
  rates land in the 0.8%–15.6% range, average 4.8%;
* **communication intensity** via the fraction of accesses landing in a
  globally shared pool (read-write sharing -> invalidations, forwards);
* **memory pressure** via a streaming fraction whose addresses never
  repeat (every access is a compulsory L2/memory miss);
* **synchronization** via barrier and lock-episode intervals (the paper
  notes synchronization is ~a quarter of traffic in the 64-node mesh).

The absolute values are literature-informed estimates; what the
reproduction relies on is the *spread* — memory/communication-bound
apps (em3d, mp3d, radix, ocean) versus compute-bound ones (lu,
water-spatial, tsp) — which drives the per-application speedup spread
of Figures 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import ReplayRng
from repro.workloads.ops import Op, OpKind

__all__ = ["AppSignature", "AppWorkload", "APPLICATIONS", "signature"]

#: Address-region bases (line numbers).  Regions never overlap: private
#: and streaming regions are per-node, the shared pool is global.
_PRIVATE_BASE = 1 << 22
_STREAM_BASE = 1 << 32
_SHARED_BASE = 1 << 38
_REGION = 1 << 20  # lines per node-region


@dataclass(frozen=True)
class AppSignature:
    """The traffic character of one application."""

    name: str
    label: str                    # the paper's x-axis abbreviation
    mem_fraction: float = 0.35    # memory accesses per instruction
    write_fraction: float = 0.30
    shared_fraction: float = 0.08  # of memory accesses
    #: Write fraction *within the shared pool*.  Kept low by default:
    #: real applications mostly read shared data, so read-shared lines
    #: replicate in S state and hit; the writes are what cause
    #: invalidations and ping-pong.
    shared_write_fraction: float = 0.10
    stream_fraction: float = 0.0   # of memory accesses (compulsory misses)
    #: Fraction of *private* accesses that miss the L1 (cold accesses to
    #: a region far larger than the L1 but warm in the L2).
    private_cold_fraction: float = 0.03
    hot_lines: int = 64            # always-resident private hot set
    cold_lines: int = 4096         # cold region cycled by cold accesses
    shared_pool_lines: int = 128
    #: Spatial communication pattern of the shared pool: "uniform"
    #: (random peers), "neighbor" (stencil codes exchange with mesh
    #: neighbours -> locality the electrical mesh exploits), or
    #: "butterfly" (FFT-style exchange with node XOR 2^stage).
    comm_pattern: str = "uniform"
    barrier_interval: int = 0      # instructions between barriers (0 = none)
    lock_interval: int = 0         # instructions between lock episodes
    lock_count: int = 8
    lock_hold_cycles: int = 30

    def __post_init__(self) -> None:
        for frac in (
            self.mem_fraction,
            self.write_fraction,
            self.shared_fraction,
            self.stream_fraction,
        ):
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fraction out of [0,1] in {self.name}")
        if self.shared_fraction + self.stream_fraction > 1.0:
            raise ValueError(f"shared+stream exceed 1 in {self.name}")
        if not 0.0 <= self.private_cold_fraction <= 1.0:
            raise ValueError(f"cold fraction out of [0,1] in {self.name}")
        if self.hot_lines < 1 or self.cold_lines < 1 or self.shared_pool_lines < 1:
            raise ValueError(f"empty pool in {self.name}")
        if self.comm_pattern not in ("uniform", "neighbor", "butterfly"):
            raise ValueError(
                f"unknown comm pattern {self.comm_pattern!r} in {self.name}"
            )

    @property
    def has_sync(self) -> bool:
        return self.barrier_interval > 0 or self.lock_interval > 0

    def with_miss_scale(self, factor: float) -> "AppSignature":
        """A copy with all miss sources scaled by ``factor``.

        Used for the paper's L1-size sensitivity (§7.1): a 32 KB L1
        lowers the average miss rate from 4.8% to 3.0%, i.e. a factor
        of ~0.63.  In our substitution the signature *is* the measured
        miss behaviour, so cache-size studies scale it directly.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        from dataclasses import replace

        return replace(
            self,
            shared_fraction=min(1.0, self.shared_fraction * factor),
            stream_fraction=min(1.0, self.stream_fraction * factor),
            private_cold_fraction=min(1.0, self.private_cold_fraction * factor),
        )


def _make(
    name: str,
    label: str,
    target_miss: float,
    comm_share: float,
    mem_share: float = 0.04,
    **kwargs,
) -> AppSignature:
    """Build a signature from observable targets.

    ``target_miss`` is the overall L1 miss rate (per memory access);
    ``comm_share`` the fraction of those misses that are coherence
    misses (shared-pool accesses — which, being written by other cores,
    almost always miss); ``mem_share`` the fraction that are compulsory
    streaming misses continuing to memory.  The private cold fraction
    absorbs the remainder:

        target = shared_frac * SHARED_MISS + stream_frac + private_frac * cold

    with SHARED_MISS ~ 0.9 (a shared line is usually re-invalidated
    between one core's visits).
    """
    if not 0.0 < target_miss < 1.0:
        raise ValueError(f"miss-rate target out of range: {target_miss}")
    if comm_share + mem_share > 1.0:
        raise ValueError(f"shares exceed 1 in {name}")
    shared_miss_rate = 0.9
    shared_fraction = comm_share * target_miss / shared_miss_rate
    stream_fraction = mem_share * target_miss
    private_fraction = 1.0 - shared_fraction - stream_fraction
    cold = target_miss * (1.0 - comm_share - mem_share) / private_fraction
    return AppSignature(
        name,
        label,
        shared_fraction=shared_fraction,
        stream_fraction=stream_fraction,
        private_cold_fraction=min(1.0, max(0.0, cold)),
        **kwargs,
    )


#: One signature per paper application, keyed by the figure label.
#: target_miss spans the paper's 0.8%-15.6% range (avg ~4.8%);
#: comm_share and mem_share encode each application's published
#: character (communication-bound vs memory-bound vs compute-bound).
APPLICATIONS: dict[str, AppSignature] = {
    sig.label: sig
    for sig in [
        _make("barnes", "ba", 0.030, comm_share=0.30,
              barrier_interval=8000, lock_interval=2500, lock_count=16),
        _make("cholesky", "ch", 0.040, comm_share=0.25,
              lock_interval=1800, lock_count=12),
        _make("fmm", "fmm", 0.025, comm_share=0.30,
              barrier_interval=9000, lock_interval=4000),
        _make("fft", "fft", 0.055, comm_share=0.15, mem_share=0.15, comm_pattern="butterfly",
              barrier_interval=12000),
        _make("lu", "lu", 0.018, comm_share=0.20,
              barrier_interval=10000),
        _make("ocean", "oc", 0.075, comm_share=0.35, mem_share=0.20, comm_pattern="neighbor",
              barrier_interval=5000),
        _make("radiosity", "ro", 0.030, comm_share=0.40,
              lock_interval=1200, lock_count=24, lock_hold_cycles=40),
        _make("radix", "rx", 0.095, comm_share=0.30, mem_share=0.25,
              barrier_interval=7000),
        _make("raytrace", "ray", 0.050, comm_share=0.45,
              lock_interval=900, lock_count=8, lock_hold_cycles=25),
        _make("water-spatial", "ws", 0.009, comm_share=0.30,
              barrier_interval=11000, lock_interval=5000),
        _make("em3d", "em", 0.085, comm_share=0.60, mem_share=0.10,
              barrier_interval=4000),
        _make("ilink", "ilink", 0.040, comm_share=0.30,
              barrier_interval=9000),
        _make("jacobi", "ja", 0.050, comm_share=0.25, comm_pattern="neighbor",
              barrier_interval=5000),
        _make("mp3d", "mp", 0.150, comm_share=0.50, mem_share=0.10,
              barrier_interval=6000),
        _make("shallow", "sh", 0.065, comm_share=0.25, mem_share=0.20, comm_pattern="neighbor",
              barrier_interval=6000),
        _make("tsp", "tsp", 0.020, comm_share=0.30,
              lock_interval=3000, lock_count=4, lock_hold_cycles=50),
    ]
}


def signature(label: str) -> AppSignature:
    """Look up a signature by its figure label (e.g. ``"oc"``).

    >>> signature("mp").name
    'mp3d'
    """
    try:
        return APPLICATIONS[label]
    except KeyError:
        raise KeyError(
            f"unknown application {label!r}; known: {sorted(APPLICATIONS)}"
        ) from None


#: WORK and BARRIER ops carry no payload and Op is frozen, so every
#: stream shares one instance of each (op construction is the hottest
#: allocation in the simulator — two thirds of all instructions).
_WORK_OP = Op(kind=OpKind.WORK)
_BARRIER_OP = Op(kind=OpKind.BARRIER)


class AppWorkload:
    """Per-core operation stream for one application signature."""

    def __init__(self, signature: AppSignature, node: int, num_nodes: int):
        self.signature = signature
        self.node = node
        self.num_nodes = num_nodes
        self._ops_generated = 0
        self._stream_pos = 0
        self._cold_pos = 0
        self._butterfly_stage = 0
        self._private_base = _PRIVATE_BASE + node * _REGION
        self._cold_base = self._private_base + signature.hot_lines
        self._stream_base = _STREAM_BASE + node * _REGION
        # Mesh neighbours, the peers of the "neighbor" comm pattern.
        side = int(round(num_nodes ** 0.5))
        x, y = node % side, node // side
        self._neighbors = [
            peer
            for peer, on_chip in (
                (node - 1, x > 0),
                (node + 1, x < side - 1),
                (node - side, y > 0),
                (node + side, y < side - 1),
            )
            if on_chip
        ]
        if signature.comm_pattern == "neighbor" and not self._neighbors:
            raise ValueError(
                f"app {signature.label!r} exchanges with mesh neighbours, and "
                f"node {node} of a {num_nodes}-node grid has none"
            )

    def next_op(self, rng: ReplayRng) -> Op:
        """The next instruction for this core."""
        sig = self.signature
        count = self._ops_generated + 1
        self._ops_generated = count

        interval = sig.barrier_interval
        if interval and count % interval == 0:
            return _BARRIER_OP
        interval = sig.lock_interval
        if interval and count % interval == 0:
            return Op(
                kind=OpKind.LOCK,
                lock_id=int(rng.integers(0, sig.lock_count)),
                hold_cycles=sig.lock_hold_cycles,
            )
        if rng.random() >= sig.mem_fraction:
            return _WORK_OP
        line, shared = self._pick_line(rng)
        write_fraction = (
            sig.shared_write_fraction if shared else sig.write_fraction
        )
        return Op(
            kind=OpKind.MEM,
            line=line,
            is_write=bool(rng.random() < write_fraction),
        )

    def reuse_lines(self) -> range:
        """This core's private reuse region (for L2 warm start)."""
        return range(
            self._private_base,
            self._cold_base + self.signature.cold_lines,
        )

    def shared_lines(self) -> range:
        """The global shared pool (same for every core)."""
        return range(
            _SHARED_BASE, _SHARED_BASE + self.signature.shared_pool_lines
        )

    def _pick_line(self, rng: ReplayRng) -> tuple[int, bool]:
        """Returns ``(line, is_shared)``."""
        sig = self.signature
        r = rng.random()
        if r < sig.shared_fraction:
            return self._pick_shared(rng), True
        if r < sig.shared_fraction + sig.stream_fraction:
            line = self._stream_base + (self._stream_pos % _REGION)
            self._stream_pos += 1
            return line, False
        if rng.random() < sig.private_cold_fraction:
            # A cold access: cycles a region much larger than the L1, so
            # it always misses the L1 but (after warm-up) hits the L2.
            line = self._cold_base + (self._cold_pos % sig.cold_lines)
            self._cold_pos += 1
            return line, False
        return (
            self._private_base + int(rng.integers(0, sig.hot_lines)),
            False,
        )

    def _pick_shared(self, rng: ReplayRng) -> int:
        """A shared-pool line, spatially biased by the comm pattern.

        Lines are home-interleaved (home = line mod N), so targeting a
        peer means choosing lines whose home is that peer: stencil codes
        exchange with mesh neighbours (1-hop traffic the electrical mesh
        serves cheaply), butterfly codes with node XOR 2^stage.
        """
        sig = self.signature
        pool = sig.shared_pool_lines
        if sig.comm_pattern == "uniform":
            return _SHARED_BASE + int(rng.integers(0, pool))
        peer = self._comm_peer(rng)
        # Lines in the pool whose home is `peer`: peer, peer+N, peer+2N...
        stride = self.num_nodes
        slots = max(1, pool // stride)
        offset = int(rng.integers(0, slots))
        return _SHARED_BASE + (peer % stride) + offset * stride

    def _comm_peer(self, rng: ReplayRng) -> int:
        n = self.num_nodes
        if self.signature.comm_pattern == "butterfly":
            stage = self._butterfly_stage
            self._butterfly_stage = (stage + 1) % max(1, n.bit_length() - 1)
            return self.node ^ (1 << stage)
        # "neighbor": a mesh neighbour.
        neighbors = self._neighbors
        return neighbors[int(rng.integers(0, len(neighbors)))]
