"""Tournament (hybrid) predictor: local + gshare with a global chooser.

This is the "6.55KB tournament predictor" of the paper's Table II.  A
``scale`` knob multiplies every table size, which is exactly how the paper
emulates "a more accurate branch predictor" in the Fig. 13 sensitivity
sweep (0.5x / default / 2x / 4x).
"""

from repro.branch.gshare import GsharePredictor
from repro.branch.local import LocalPredictor

# table sizes at scale 1: a 21264-flavoured predictor of roughly the
# paper's 6.55KB budget
LOCAL_HISTORY_ENTRIES = 1024
LOCAL_HISTORY_BITS = 10
GLOBAL_ENTRIES = 4096
GLOBAL_HISTORY_BITS = 12
CHOOSER_ENTRIES = 4096


def _scaled(entries, scale):
    """*entries* times *scale*, at least 16, rounded down to a power of
    two."""
    result = max(16, int(entries * scale))
    return 1 << (result.bit_length() - 1)


class TournamentPredictor:
    """Hybrid local/gshare predictor with a 2-bit chooser per history index.

    The chooser is trained only when the components disagree; the global
    history register lives in the embedded gshare component and is shared
    for chooser indexing, as in the 21264.

    :param scale: table-size multiplier (``SystemConfig.bp_scale``).
    """

    name = "tournament"

    def __init__(self, scale=1.0):
        global_entries = _scaled(GLOBAL_ENTRIES, scale)
        history_bits = min(
            GLOBAL_HISTORY_BITS + max(0, int(scale).bit_length() - 1),
            (global_entries - 1).bit_length(),
        )
        chooser_entries = _scaled(CHOOSER_ENTRIES, scale)
        self.local = LocalPredictor(_scaled(LOCAL_HISTORY_ENTRIES, scale),
                                    LOCAL_HISTORY_BITS)
        self.gshare = GsharePredictor(global_entries, history_bits)
        self.chooser = [2] * chooser_entries  # 2 = weakly prefer global
        self._cmask = chooser_entries - 1

    @property
    def history(self):
        """Live global history register (used to seed speculative lookups)."""
        return self.gshare.history

    def predict(self, pc, history=None):
        """Predict the branch at *pc*.

        With ``history=None`` the live global history is used; passing an
        explicit *history* performs a side-effect-free speculative lookup
        (B-Fetch lookahead threading its own history down the predicted
        path).
        """
        # direct reads of the chosen component's counter: this runs at
        # every decoded branch and at every step of a B-Fetch walk, and
        # both component predicts are side-effect free
        gshare = self.gshare
        if history is None:
            history = gshare.history
        if self.chooser[history & self._cmask] >= 2:
            return (gshare.table[((pc >> 2) ^ history) & gshare._mask]
                    >= gshare.threshold)
        local = self.local
        return (local.counters[local.histories[(pc >> 2) & local._hmask]
                               & local._pmask]
                >= local.threshold)

    def update(self, pc, taken):
        """Train all components with the resolved outcome."""
        local = self.local
        gshare = self.gshare
        history = gshare.history
        word = pc >> 2
        # both components' predictions, read as in :meth:`predict`
        local_pred = (local.counters[local.histories[word & local._hmask]
                                     & local._pmask]
                      >= local.threshold)
        global_pred = (gshare.table[(word ^ history) & gshare._mask]
                       >= gshare.threshold)
        if local_pred != global_pred:
            cindex = history & self._cmask
            count = self.chooser[cindex]
            if global_pred == taken:
                if count < 3:
                    self.chooser[cindex] = count + 1
            elif count > 0:
                self.chooser[cindex] = count - 1
        local.update(pc, taken)
        gshare.update(pc, taken)  # also shifts the global history

    def snapshot(self):
        """Component predictors and chooser as a JSON-safe structure."""
        return {
            "local": self.local.snapshot(),
            "gshare": self.gshare.snapshot(),
            "chooser": list(self.chooser),
        }

    def restore(self, state):
        """Restore predictor state from :meth:`snapshot` output."""
        self.local.restore(state["local"])
        self.gshare.restore(state["gshare"])
        self.chooser[:] = state["chooser"]

    def storage_bits(self):
        return (
            self.local.storage_bits()
            + self.gshare.storage_bits()
            + len(self.chooser) * 2
        )
