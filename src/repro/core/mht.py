"""Memory History Table (MHT).

The largest B-Fetch structure (Section IV-B2, Fig. 6).  One entry per
basic block (indexed by the same (branch PC, direction, target) hash as
the BrTC); each entry holds up to three *register history* slots -- one
per unique source register used for effective-address generation in that
block -- recording:

* ``regidx`` -- the source register,
* ``regval`` -- the register's value when the leading branch executed,
* ``offset`` -- learned ``EA - regval`` (static displacement *plus* the
  register's in-block variation, Equation 1),
* ``pospatt``/``negpatt`` -- 5-bit block-granular bit vectors for further
  loads off the same register in the block (Listing 2),
* ``loopdelta`` -- EA delta across consecutive executions, used with the
  lookahead's revisit count for loop prefetching (Equation 3).

We additionally keep the 10-bit load-PC hash with each slot so the
per-load filter can be consulted at prefetch-issue time (the hardware
recovers it from the same commit path that trains the slot; Table I's
bit budget absorbs it in the hash fields -- see EXPERIMENTS.md).

Each entry also caches its *issue list*: the slots a lookahead may
issue from, compiled by the engine into flat tuples
(:meth:`~repro.core.bfetch.BFetchPrefetcher._compile_issue`).  It is
None until a walk needs it, and the trainer resets it whenever it
touches the entry.
"""

# Fig. 6 / Table I field widths
MHT_REG_SLOTS = 3      # register-history slots per entry
OFFSET_BITS = 16       # signed Offset field
LOOPDELTA_BITS = 16    # signed LoopDelta field
PATTERN_BITS = 5       # posPatt/negPatt: blocks either side of a load

# largest |offset| and |loop delta| the signed fields represent
OFFSET_LIMIT = (1 << (OFFSET_BITS - 1)) - 1
LOOPDELTA_LIMIT = (1 << (LOOPDELTA_BITS - 1)) - 1


class RegisterHistory:
    """One register-history slot of an MHT entry."""

    __slots__ = (
        "regidx",
        "regval",
        "offset",
        "pospatt",
        "negpatt",
        "valid",
        "loopdelta",
        "load_hash",
        "last_ea",
        "stable",
    )

    def __init__(self, regidx):
        self.regidx = regidx
        self.regval = 0
        self.offset = 0
        self.pospatt = 0
        self.negpatt = 0
        self.valid = False
        self.loopdelta = 0
        self.load_hash = 0
        self.last_ea = None
        # 2-bit offset-stability hysteresis: a slot only issues once its
        # learned offset has re-confirmed, so loads whose address bears no
        # stable relation to the register (e.g. hash-computed) never leave
        # the table as prefetch candidates
        self.stable = 0


class MHTEntry:
    """One basic block's worth of register history."""

    __slots__ = ("tag", "slots", "next_victim", "max_slots", "issue")

    def __init__(self, tag, max_slots):
        self.tag = tag
        self.slots = []
        self.next_victim = 0
        self.max_slots = max_slots
        self.issue = None  # compiled issue list; None = rebuild on use

    def slot_for(self, regidx, allocate):
        """Find (or allocate) the slot tracking *regidx*."""
        for slot in self.slots:
            if slot.regidx == regidx:
                return slot
        if not allocate:
            return None
        slot = RegisterHistory(regidx)
        if len(self.slots) < self.max_slots:
            self.slots.append(slot)
        else:
            # round-robin replacement among the fixed slots
            self.slots[self.next_victim] = slot
            self.next_victim = (self.next_victim + 1) % self.max_slots
        return slot


class MemoryHistoryTable:
    """Direct-mapped MHT."""

    def __init__(self, entries=128, reg_slots=MHT_REG_SLOTS):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.reg_slots = reg_slots
        self._mask = entries - 1
        self.table = [None] * entries
        self.lookups = 0
        self.hits = 0

    def lookup(self, index_hash, tag):
        """Read-only probe; returns the :class:`MHTEntry` or None."""
        self.lookups += 1
        entry = self.table[index_hash & self._mask]
        if entry is None or entry.tag != tag:
            return None
        self.hits += 1
        return entry

    def get_or_allocate(self, index_hash, tag):
        """Training-path access: existing entry or a fresh replacement."""
        slot = index_hash & self._mask
        entry = self.table[slot]
        if entry is None or entry.tag != tag:
            entry = MHTEntry(tag, self.reg_slots)
            self.table[slot] = entry
        return entry

    @property
    def hit_rate(self):
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self):
        """MHT contents and counters as a JSON-safe structure."""
        table = []
        for entry in self.table:
            if entry is None:
                table.append(None)
                continue
            table.append({
                "tag": entry.tag,
                "next_victim": entry.next_victim,
                "slots": [
                    {
                        "regidx": slot.regidx,
                        "regval": slot.regval,
                        "offset": slot.offset,
                        "pospatt": slot.pospatt,
                        "negpatt": slot.negpatt,
                        "valid": slot.valid,
                        "loopdelta": slot.loopdelta,
                        "load_hash": slot.load_hash,
                        "last_ea": slot.last_ea,
                        "stable": slot.stable,
                    }
                    for slot in entry.slots
                ],
            })
        return {"table": table, "lookups": self.lookups, "hits": self.hits}

    def restore(self, state):
        """Restore MHT state from :meth:`snapshot` output, into the
        existing table (the B-Fetch engine binds it once)."""
        table = [None] * self.entries
        for index, encoded in enumerate(state["table"]):
            if encoded is None:
                continue
            entry = MHTEntry(encoded["tag"], self.reg_slots)
            entry.next_victim = encoded["next_victim"]
            for item in encoded["slots"]:
                slot = RegisterHistory(item["regidx"])
                slot.regval = item["regval"]
                slot.offset = item["offset"]
                slot.pospatt = item["pospatt"]
                slot.negpatt = item["negpatt"]
                slot.valid = item["valid"]
                slot.loopdelta = item["loopdelta"]
                slot.load_hash = item["load_hash"]
                slot.last_ea = item["last_ea"]
                slot.stable = item["stable"]
                entry.slots.append(slot)
            table[index] = entry
        self.table[:] = table
        self.lookups = state["lookups"]
        self.hits = state["hits"]

    def storage_bits(self):
        # Fig. 6: Branch tag (32) + 3 x (regIdx 5 + RegVal 32 + Offset 16 +
        # negPatt 5 + posPatt 5 + Valid 1 + LoopCnt 5 + LoopDelta 16) = 287
        # bits per entry => 4.5KB at 128 entries, matching Table I.
        per_slot = (5 + 32 + OFFSET_BITS + 2 * PATTERN_BITS + 1 + 5
                    + LOOPDELTA_BITS)
        return self.entries * (32 + self.reg_slots * per_slot)
