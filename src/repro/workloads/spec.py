"""The 18 SPEC CPU2006 stand-in profiles.

Each profile composes the :mod:`~repro.workloads.patterns` kernels inside
one endless outer loop.  Laps are sized at roughly 20k-35k dynamic
instructions, so the default 200k-instruction window executes several full
laps -- enough for history prefetchers to train *and* replay, and for the
branch predictor to reach its steady state.

Large-working-set kernels use *persistent* walk positions (the stream
continues across laps through multi-megabyte regions) so memory-bound
benchmarks stay DRAM-bound for the whole run instead of becoming
cache-resident after the first lap.

Working-set classes mirror the paper's Fig. 1 behaviour:

* L1-resident compute (no prefetcher helps): calculix, gamess, gromacs,
  sjeng;
* large streaming (every prefetcher helps, a lot): bwaves, lbm, leslie3d,
  libquantum, sphinx;
* spatial/record (SMS's home turf; milc is its corner-case win):
  cactusADM, milc, zeusmp;
* irregular / control-flow dependent (B-Fetch's home turf): astar, bzip2,
  h264ref, hmmer, mcf, soplex.

Every profile is deterministic (seeded per benchmark name).
"""

import random

from repro.workloads import patterns as pat
from repro.workloads import server as srv
from repro.workloads.builder import ProgramBuilder
from repro.workloads.workload import Workload

_REGION = 16 * 1024 * 1024  # address-space spacing between data regions
_MB = 1024 * 1024

P0, P1, P2, P3, P4, P5 = pat.PERSISTENT_REGS

# Benchmarks the paper marks prefetch-sensitive (gained under the Perfect
# prefetcher in Fig. 1); the compute-bound four are the exceptions.
PREFETCH_SENSITIVE = (
    "astar", "bwaves", "bzip2", "cactusADM", "h264ref", "hmmer", "lbm",
    "leslie3d", "libquantum", "mcf", "milc", "soplex", "sphinx", "zeusmp",
)


class Profile:
    """Metadata + generator for one benchmark."""

    def __init__(self, name, emit, klass):
        self.name = name
        self.emit = emit
        self.klass = klass

    @property
    def prefetch_sensitive(self):
        return self.name in PREFETCH_SENSITIVE


def _bases(count):
    """Staggered region base addresses (stagger avoids every array
    starting at cache set 0)."""
    return [_REGION * (i + 1) + i * 8256 for i in range(count)]


# ----------------------------------------------------------------------
# profile generators: fn(b, mem, rng, pro) emits the loop-body phases;
# `pro` collects (register, initial value) pairs for the prologue.


def _astar(b, mem, rng, pro):
    chase_base, pred, walk, hot_base = _bases(4)
    head = pat.init_pointer_chain(mem, rng, chase_base, nodes=4096, spread=32)
    pat.init_predicates(mem, rng, pred, 1600, bias=0.91)
    pat.emit_pointer_chase(b, head, hops=1000)
    pat.emit_branchy(b, pred, 1600, walk, step_taken=320, step_not=64,
                     work=2, pos_reg=P0, size=4 * _MB, prologue=pro)
    pat.emit_hot(b, hot_base, 32 * 1024, iters=500)


def _bwaves(b, mem, rng, pro):
    a0, a1, a2 = _bases(3)
    pat.emit_multistream(
        b,
        [(a0, 64, P0, 4 * _MB), (a1, 64, P1, 4 * _MB), (a2, 64, P2, 4 * _MB)],
        elems=1400, work=20, prologue=pro,
    )
    pat.emit_compute(b, iters=150)


def _bzip2(b, mem, rng, pro):
    s_base, pred, walk, hot_base = _bases(4)
    pat.init_predicates(mem, rng, pred, 1400, bias=0.89)
    pat.emit_stream(b, s_base, elems=2000, stride=16, work=4,
                    pos_reg=P0, size=1 * _MB, prologue=pro)
    pat.emit_branchy(b, pred, 1400, walk, step_taken=192, step_not=64,
                     work=2, pos_reg=P1, size=2 * _MB, prologue=pro)
    pat.emit_hot(b, hot_base, 32 * 1024, iters=400)
    pat.emit_compute(b, iters=300)


def _cactus(b, mem, rng, pro):
    r_base, s_base = _bases(2)
    # clustered header fields plus two cold far fields: B-Fetch's
    # +-5-block patterns cover the header, SMS's 2KB regions cover all
    offsets = [0, 128, 256, 640, 896]
    pat.emit_region(b, r_base, region_bytes=1024, offsets=offsets,
                    regions=900, work=24, pos_reg=P0, size=4 * _MB, prologue=pro)
    pat.emit_stream(b, s_base, elems=800, stride=8, work=4)


def _calculix(b, mem, rng, pro):
    m_base, = _bases(1)
    pat.emit_compute(b, iters=1000)
    pat.emit_matrix(b, m_base, rows=24, cols=64)  # 12KB: L1-resident


def _gamess(b, mem, rng, pro):
    pat.emit_compute(b, iters=1200)
    pat.emit_hot(b, _bases(1)[0], 16 * 1024, iters=300)


def _gromacs(b, mem, rng, pro):
    s_base, = _bases(1)
    pat.emit_compute(b, iters=800)
    pat.emit_stream(b, s_base, elems=1200, stride=8, work=2)  # ~10KB: L1


def _h264ref(b, mem, rng, pro):
    m_base, pred, walk, idx, data = _bases(5)
    pat.init_predicates(mem, rng, pred, 1600, bias=0.90)
    pat.init_index_array(mem, rng, idx, 800, data_words=64 * 1024)
    pat.emit_matrix(b, m_base, rows=24, cols=32, row_pad=256)
    pat.emit_branchy(b, pred, 1600, walk, step_taken=384, step_not=128,
                     work=2, pos_reg=P0, size=4 * _MB, prologue=pro)
    pat.emit_gather(b, idx, data, elems=800, work=2)
    pat.emit_compute(b, iters=250)


def _hmmer(b, mem, rng, pro):
    s_base, m_base, pred, walk = _bases(4)
    pat.init_predicates(mem, rng, pred, 1200, bias=0.92)
    pat.emit_stream(b, s_base, elems=2000, stride=24, work=5,
                    pos_reg=P0, size=2 * _MB, prologue=pro)
    pat.emit_matrix(b, m_base, rows=24, cols=48)
    pat.emit_branchy(b, pred, 1200, walk, step_taken=192, step_not=64,
                     work=2, pos_reg=P1, size=2 * _MB, prologue=pro)


def _lbm(b, mem, rng, pro):
    a0, a1, r_base = _bases(3)
    pat.emit_multistream(
        b, [(a0, 64, P0, 4 * _MB), (a1, 64, P1, 4 * _MB)],
        elems=1100, work=16, prologue=pro,
    )
    offsets = [0, 64, 128, 192, 256, 320]
    pat.emit_region(b, r_base, region_bytes=512, offsets=offsets,
                    regions=600, work=14, pos_reg=P2, size=4 * _MB, prologue=pro)


def _leslie3d(b, mem, rng, pro):
    a0, a1, a2, r_base = _bases(4)
    pat.emit_multistream(
        b,
        [(a0, 64, P0, 4 * _MB), (a1, 128, P1, 6 * _MB), (a2, 64, P2, 4 * _MB)],
        elems=1100, work=14, prologue=pro,
    )
    pat.emit_region(b, r_base, region_bytes=256, offsets=[0, 64, 128],
                    regions=500, work=10, pos_reg=P3, size=3 * _MB, prologue=pro)
    pat.emit_compute(b, iters=150)


def _libquantum(b, mem, rng, pro):
    a0, = _bases(1)
    pat.emit_stream(b, a0, elems=3500, stride=64, work=1,
                    pos_reg=P0, size=6 * _MB, prologue=pro)
    pat.emit_compute(b, iters=100)


def _mcf(b, mem, rng, pro):
    chase_base, idx_base, data_base, pred, walk = _bases(5)
    head = pat.init_pointer_chain(mem, rng, chase_base, nodes=8192, spread=16)
    pat.init_index_array(mem, rng, idx_base, 1200, data_words=256 * 1024)
    pat.init_predicates(mem, rng, pred, 1000, bias=0.89)
    pat.emit_pointer_chase(b, head, hops=1200)
    pat.emit_gather(b, idx_base, data_base, elems=1200, work=3)
    pat.emit_branchy(b, pred, 1000, walk, step_taken=448, step_not=128,
                     work=2, pos_reg=P0, size=6 * _MB, prologue=pro)


def _milc(b, mem, rng, pro):
    r_base, = _bases(1)
    # one touch per 2KB region predicts the whole region: SMS's best case
    # two field clusters per 2KB record: the far cluster is beyond
    # B-Fetch's +-5-block patterns but inside SMS's spatial region
    offsets = [0, 64, 128, 192, 1024, 1088, 1152, 1216]
    pat.emit_region(b, r_base, region_bytes=2048, offsets=offsets,
                    regions=1000, work=28, pos_reg=P0, size=6 * _MB, prologue=pro)
    pat.emit_compute(b, iters=400)


def _sjeng(b, mem, rng, pro):
    hot_base, pred, walk = _bases(3)
    pat.init_predicates(mem, rng, pred, 500, bias=0.70)
    pat.emit_hot(b, hot_base, 32 * 1024, iters=600)
    pat.emit_compute(b, iters=900)
    pat.emit_branchy(b, pred, 500, walk, step_taken=128, step_not=0,
                     pos_reg=P0, size=128 * 1024, prologue=pro)


def _soplex(b, mem, rng, pro):
    idx_base, data_base, s_base, pred, walk = _bases(5)
    pat.init_index_array(mem, rng, idx_base, 2000, data_words=512 * 1024)
    pat.init_predicates(mem, rng, pred, 700, bias=0.90)
    pat.emit_gather(b, idx_base, data_base, elems=2000, work=3)
    pat.emit_stream(b, s_base, elems=1500, stride=8, work=3,
                    pos_reg=P0, size=1 * _MB, prologue=pro)
    pat.emit_branchy(b, pred, 700, walk, step_taken=320, step_not=64,
                     work=2, pos_reg=P1, size=4 * _MB, prologue=pro)


def _sphinx(b, mem, rng, pro):
    s_base, idx_base, data_base, m_base = _bases(4)
    pat.init_index_array(mem, rng, idx_base, 1000, data_words=128 * 1024)
    pat.emit_stream(b, s_base, elems=1800, stride=64, work=10,
                    pos_reg=P0, size=5 * _MB, prologue=pro)
    pat.emit_gather(b, idx_base, data_base, elems=1000, work=2)
    pat.emit_matrix(b, m_base, rows=24, cols=40)


def _zeusmp(b, mem, rng, pro):
    r_base, a0, a1 = _bases(3)
    offsets = [0, 64, 128, 320, 512, 704]
    pat.emit_region(b, r_base, region_bytes=1024, offsets=offsets,
                    regions=700, work=20, pos_reg=P0, size=3 * _MB,
                    prologue=pro)
    pat.emit_multistream(
        b, [(a0, 64, P1, 3 * _MB), (a1, 64, P2, 3 * _MB)],
        elems=700, work=12, prologue=pro,
    )


PROFILES = {
    "astar": Profile("astar", _astar, "irregular"),
    "bwaves": Profile("bwaves", _bwaves, "streaming"),
    "bzip2": Profile("bzip2", _bzip2, "irregular"),
    "cactusADM": Profile("cactusADM", _cactus, "spatial"),
    "calculix": Profile("calculix", _calculix, "compute"),
    "gamess": Profile("gamess", _gamess, "compute"),
    "gromacs": Profile("gromacs", _gromacs, "compute"),
    "h264ref": Profile("h264ref", _h264ref, "irregular"),
    "hmmer": Profile("hmmer", _hmmer, "irregular"),
    "lbm": Profile("lbm", _lbm, "streaming"),
    "leslie3d": Profile("leslie3d", _leslie3d, "streaming"),
    "libquantum": Profile("libquantum", _libquantum, "streaming"),
    "mcf": Profile("mcf", _mcf, "irregular"),
    "milc": Profile("milc", _milc, "spatial"),
    "sjeng": Profile("sjeng", _sjeng, "compute"),
    "soplex": Profile("soplex", _soplex, "irregular"),
    "sphinx": Profile("sphinx", _sphinx, "streaming"),
    "zeusmp": Profile("zeusmp", _zeusmp, "spatial"),
    # server-class code-footprint-heavy profiles (see workloads/server.py):
    # the decoupled front end's evaluation set
    "nginx": Profile("nginx", srv.nginx, "server"),
    "postgres": Profile("postgres", srv.postgres, "server"),
    "verilator": Profile("verilator", srv.verilator, "server"),
}

BENCHMARKS = tuple(sorted(PROFILES))
# the paper's 18 SPEC CPU2006 stand-ins -- every profile except the
# server workloads -- which the figure and table grids iterate
SPEC_BENCHMARKS = tuple(sorted(name for name, profile in PROFILES.items()
                               if profile.klass != "server"))

_CACHE = {}


def check_variant(variant):
    """Return *variant* if it is a non-negative ``int`` (not a bool).

    The seed string formats it with ``%d``, so ``1.5`` would silently
    build variant 1 and ``-1`` an unintended ``-v-1`` workload.
    """
    if isinstance(variant, bool) or not isinstance(variant, int) \
            or variant < 0:
        raise ValueError(
            "variant must be a non-negative integer, got %r" % (variant,))
    return variant


def build_workload(name, variant=0):
    """Build (and memoise) the named benchmark workload.

    :param variant: seed index for the stochastic workload content
        (pointer-chain order, predicate patterns, gather indices).
        Variant 0 is the canonical calibrated instance; other variants
        share the same code structure with re-drawn data, for
        across-seed variability studies.  Must be a non-negative
        ``int`` (:class:`ValueError` otherwise).
    """
    key = (name, check_variant(variant))
    if key in _CACHE:
        return _CACHE[key]
    profile = PROFILES.get(name)
    if profile is None:
        raise KeyError(
            "unknown benchmark %r (known: %s)" % (name, ", ".join(BENCHMARKS))
        )
    seed = "repro-bfetch-" + name
    if variant:
        seed += "-v%d" % variant
    rng = random.Random(seed)
    memory = {}
    prologue = []
    body = ProgramBuilder(name)
    body.label("outer")
    profile.emit(body, memory, rng, prologue)
    body.br("outer")
    body.halt()
    # assemble: prologue initialisation, then the endless loop body
    final = ProgramBuilder(name)
    final.li(pat.R_ACC, 0)
    final.li(pat.R_SEED, rng.randrange(1, 1 << 30))
    final.li(pat.R_W0, 1)
    final.li(pat.R_W1, 2)
    final.li(pat.R_W2, 3)
    for reg, value in prologue:
        final.li(reg, value)
    final.append_builder(body)
    workload = Workload(name, final.build(), memory, profile)
    _CACHE[key] = workload
    return workload
