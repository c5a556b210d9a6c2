"""Memory-system scenario tests: multi-level interactions under load."""

from repro.memory import Cache, HierarchyConfig, MemoryHierarchy
from repro.memory.hierarchy import L1_LATENCY, L2_LATENCY, LLC_LATENCY


def test_llc_warming_by_sibling_core_changes_latency_class():
    cfg = HierarchyConfig()
    llc = cfg.make_llc(2)
    dram = cfg.make_dram()
    a = MemoryHierarchy(cfg, llc=llc, dram=dram)
    b = MemoryHierarchy(cfg, llc=llc, dram=dram)
    cold, _ = a.load(0x500000, now=0)
    warm, _ = b.load(0x500000, now=10_000)
    assert warm < cold
    assert warm == L1_LATENCY + L2_LATENCY + LLC_LATENCY


def test_llc_pollution_by_sibling_core():
    """A streaming core evicts a quiet core's LLC-resident data."""
    cfg = HierarchyConfig(llc_size_per_core=64 * 1024, llc_assoc=4)
    llc = cfg.make_llc(1)
    dram = cfg.make_dram()
    quiet = MemoryHierarchy(cfg, llc=llc, dram=dram)
    noisy = MemoryHierarchy(cfg, llc=llc, dram=dram)
    quiet.load(0x100000, now=0)
    # the streamer pushes several LLC's worth of blocks through
    for i in range(4 * 1024):
        noisy.load(0x800000 + i * 64, now=100 + i)
    # the quiet core's block fell out of the shared LLC (still in its
    # private L1/L2 though)
    assert not llc.contains(0x100000)


def test_prefetch_traffic_bounded_demand_penalty():
    """Demand misses issued after a prefetch burst pay at most ~one
    transfer of queueing."""
    cfg = HierarchyConfig()
    h = MemoryHierarchy(cfg)
    for i in range(20):
        h.prefetch(0x900000 + i * 64, now=0)
    latency, _ = h.load(0xA00000, now=0)
    base = (L1_LATENCY + L2_LATENCY + LLC_LATENCY
            + cfg.dram_latency)
    assert latency <= base + cfg.dram_cycles_per_transfer + 1


def test_mshr_pressure_vs_capacity():
    fat = MemoryHierarchy(HierarchyConfig(mshr_entries=32))
    thin = MemoryHierarchy(HierarchyConfig(mshr_entries=2))
    fat_latencies = [fat.load(0xB00000 + i * 64, 0)[0] for i in range(8)]
    thin_latencies = [thin.load(0xB00000 + i * 64, 0)[0] for i in range(8)]
    assert sum(thin_latencies) > sum(fat_latencies)


def test_l2_keeps_blocks_evicted_from_l1():
    cfg = HierarchyConfig(l1d_size=2 * 64, l1d_assoc=2)
    h = MemoryHierarchy(cfg)
    h.load(0, now=0)
    h.load(64, now=1)
    h.load(128, now=2)  # evicts block 0 from the tiny L1
    assert not h.l1d.contains(0)
    latency, hit = h.load(0, now=1000)
    assert not hit
    assert latency == L1_LATENCY + L2_LATENCY


def test_prefetched_line_upgrade_path():
    """L2-resident data prefetched into L1 arrives with a short ready
    horizon; DRAM-resident data with a long one."""
    h = MemoryHierarchy(HierarchyConfig())
    h.l2.fill(0xC00000)
    h.prefetch(0xC00000, now=0)
    near = h.l1d.lookup(0xC00000).ready
    h.prefetch(0xD00000, now=0)
    far = h.l1d.lookup(0xD00000).ready
    assert near < far


def test_cache_set_isolation():
    cache = Cache("t", 8 * 64, 2, 64)  # 4 sets x 2 ways
    # fill set 0 heavily; set 1 lines must survive
    cache.fill(1 * 64)
    for i in range(10):
        cache.fill(i * 4 * 64)
    assert cache.contains(1 * 64)
