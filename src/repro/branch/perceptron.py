"""Perceptron branch predictor (Jimenez & Lin, HPCA 2001).

The paper's future work proposes evaluating B-Fetch under
"state-of-the-art branch predictors"; this is the classic neural
predictor from the same group.  Each branch PC indexes a vector of
signed weights; the prediction is the sign of the dot product of the
weights with the global history (+bias), and training nudges weights
whenever the prediction was wrong or the magnitude fell below the
threshold.

Exposes the same interface as the tournament predictor (``predict`` with
an optional explicit history, ``update``, ``history``), so it drops into
:class:`~repro.sim.SystemConfig` via ``branch_predictor="perceptron"``.
"""

_THETA_FACTOR = 1.93  # Jimenez's empirically optimal threshold slope


class PerceptronPredictor:
    """Global-history perceptron predictor.

    :param entries: number of weight vectors (power of two).
    :param history_bits: global history length == weights per vector.
    :param weight_bits: signed weight width (8 in the original).
    """

    name = "perceptron"
    STATE = ("weights", "history")

    def __init__(self, entries=512, history_bits=24, weight_bits=8):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.weight_limit = (1 << (weight_bits - 1)) - 1
        self.weight_bits = weight_bits
        self.threshold = int(_THETA_FACTOR * history_bits + 14)
        # weights[i] = [bias, w1..wn]
        self.weights = [[0] * (history_bits + 1) for _ in range(entries)]
        self._mask = entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self.history = 0

    def _output(self, pc, history):
        weights = self.weights[(pc >> 2) & self._mask]
        total = weights[0]
        for position in range(1, self.history_bits + 1):
            if (history >> (position - 1)) & 1:
                total += weights[position]
            else:
                total -= weights[position]
        return total

    def predict(self, pc, history=None):
        """Predict the branch at *pc* (side-effect free)."""
        if history is None:
            history = self.history
        return self._output(pc, history) >= 0

    def update(self, pc, taken):
        """Perceptron learning rule + global history shift."""
        history = self.history
        output = self._output(pc, history)
        predicted = output >= 0
        if predicted != taken or abs(output) <= self.threshold:
            weights = self.weights[(pc >> 2) & self._mask]
            step = 1 if taken else -1
            limit = self.weight_limit
            new_bias = weights[0] + step
            if -limit <= new_bias <= limit:
                weights[0] = new_bias
            for position in range(1, self.history_bits + 1):
                agree = ((history >> (position - 1)) & 1) == (1 if taken else 0)
                delta = 1 if agree else -1
                value = weights[position] + delta
                if -limit <= value <= limit:
                    weights[position] = value
        self.history = ((history << 1) | (1 if taken else 0)) & self._hist_mask

    def storage_bits(self):
        return (
            self.entries * (self.history_bits + 1) * self.weight_bits
            + self.history_bits
        )
