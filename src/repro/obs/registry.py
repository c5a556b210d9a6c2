"""gem5-style statistics registry.

Components register named statistics -- :class:`Counter`,
:class:`Histogram`, :class:`Ratio` -- under hierarchical dotted names
(``core.rob.full_stalls``, ``pf.bfetch.lookahead_depth``) instead of
hand-assembling ad-hoc dicts.  Two registration styles coexist:

* **first-class stats** created through :meth:`StatsRegistry.counter` /
  :meth:`~StatsRegistry.histogram` / :meth:`~StatsRegistry.ratio`, for
  code that is not on a per-instruction hot path;
* **adopted stats** (:meth:`StatsRegistry.adopt`), live *views* over an
  existing slotted counter object (:class:`~repro.memory.CacheStats`,
  :class:`~repro.memory.PrefetchStats`, ...).  The component keeps
  bumping plain ``int`` attributes -- zero hot-loop overhead -- while
  the registry reads them by name at dump time.

The registry is *passive*: building one and adopting every component
costs a few microseconds at system-assembly time and nothing per
simulated instruction, so it leaves :class:`~repro.sim.RunResult`
byte-identical and the hot path untouched.
"""

from collections import OrderedDict


class Stat(object):
    """Base class: a named value with a description and a kind tag."""

    kind = "stat"
    __slots__ = ("name", "desc")

    def __init__(self, name, desc=""):
        self.name = name
        self.desc = desc

    @property
    def value(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self):
        """Zero the stat (no-op for derived stats)."""

    def __repr__(self):
        return "%s(%s=%r)" % (type(self).__name__, self.name, self.value)


class Counter(Stat):
    """A monotonically growing event count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name, desc=""):
        super().__init__(name, desc)
        self._value = 0

    def inc(self, n=1):
        self._value += n

    @property
    def value(self):
        return self._value

    @value.setter
    def value(self, new):
        self._value = new

    def reset(self):
        self._value = 0

    def __iadd__(self, n):
        self._value += n
        return self


class Histogram(Stat):
    """Bucketed distribution of integer samples.

    Values ``>= buckets`` land in the final (overflow) bucket, matching
    the ``fetch_branch_hist`` convention of the timing core.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name, buckets, desc=""):
        super().__init__(name, desc)
        if buckets < 1:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = [0] * buckets

    def sample(self, value, count=1):
        buckets = self.buckets
        index = value if 0 <= value < len(buckets) else (
            len(buckets) - 1 if value > 0 else 0
        )
        buckets[index] += count

    @property
    def value(self):
        return list(self.buckets)

    @property
    def total(self):
        return sum(self.buckets)

    @property
    def mean(self):
        total = sum(self.buckets)
        if not total:
            return 0.0
        return sum(i * n for i, n in enumerate(self.buckets)) / total

    def reset(self):
        self.buckets = [0] * len(self.buckets)


class Ratio(Stat):
    """A derived stat: numerator / denominator, 0.0 when undefined.

    *numerator* and *denominator* are zero-argument callables evaluated
    lazily at dump time, so a Ratio never adds work to the simulation
    loop and always reflects the current counter values.
    """

    kind = "ratio"
    __slots__ = ("_num", "_den")

    def __init__(self, name, numerator, denominator, desc=""):
        super().__init__(name, desc)
        self._num = numerator
        self._den = denominator

    @property
    def value(self):
        den = self._den()
        return self._num() / den if den else 0.0


class AdoptedStat(Stat):
    """A live view over one attribute of an existing counter object."""

    kind = "counter"
    __slots__ = ("_obj", "_attr")

    def __init__(self, name, obj, attr, desc=""):
        super().__init__(name, desc)
        self._obj = obj
        self._attr = attr

    @property
    def value(self):
        value = getattr(self._obj, self._attr)
        return list(value) if isinstance(value, list) else value

    def reset(self):
        current = getattr(self._obj, self._attr)
        if isinstance(current, list):
            for index in range(len(current)):
                current[index] = 0
        elif isinstance(current, (int, float)):
            try:
                setattr(self._obj, self._attr, type(current)(0))
            except AttributeError:
                pass  # read-only property: derived, nothing to reset


class FuncStat(Stat):
    """A derived stat computed by a zero-argument callable."""

    kind = "derived"
    __slots__ = ("_fn",)

    def __init__(self, name, fn, desc=""):
        super().__init__(name, desc)
        self._fn = fn

    @property
    def value(self):
        return self._fn()


class StatsRegistry(object):
    """Hierarchical registry of named statistics.

    Names are dotted paths; :meth:`dump` returns them flat and sorted,
    :meth:`as_dict` returns the same data nested by path component.
    """

    def __init__(self):
        self._stats = OrderedDict()

    # ------------------------------------------------------------------
    # registration

    def register(self, stat):
        """Register a :class:`Stat`; duplicate names are an error."""
        if stat.name in self._stats:
            raise ValueError("stat %r is already registered" % stat.name)
        self._stats[stat.name] = stat
        return stat

    def counter(self, name, desc=""):
        return self.register(Counter(name, desc))

    def histogram(self, name, buckets, desc=""):
        return self.register(Histogram(name, buckets, desc))

    def ratio(self, name, numerator, denominator, desc=""):
        return self.register(Ratio(name, numerator, denominator, desc))

    def derived(self, name, fn, desc=""):
        return self.register(FuncStat(name, fn, desc))

    def adopt(self, prefix, obj, fields=None, descs=None):
        """Expose the counter attributes of *obj* under ``prefix.<field>``.

        *fields* defaults to the object's ``__slots__``; the component
        keeps mutating its plain attributes and the registry observes
        them live.  Returns the list of created stats.
        """
        if fields is None:
            fields = getattr(obj, "__slots__", None)
            if fields is None:
                raise ValueError(
                    "adopt() needs explicit fields for %r" % (obj,)
                )
        descs = descs or {}
        return [
            self.register(
                AdoptedStat("%s.%s" % (prefix, field), obj, field,
                            descs.get(field, ""))
            )
            for field in fields
        ]

    # ------------------------------------------------------------------
    # access

    def __contains__(self, name):
        return name in self._stats

    def __getitem__(self, name):
        return self._stats[name]

    def __iter__(self):
        return iter(self._stats.values())

    def __len__(self):
        return len(self._stats)

    def names(self):
        return list(self._stats)

    # ------------------------------------------------------------------
    # dumping

    def dump(self):
        """Flat ``OrderedDict`` of name -> current value, sorted by name."""
        return OrderedDict(
            (name, self._stats[name].value)
            for name in sorted(self._stats)
        )

    def as_dict(self):
        """Nested dict keyed by dotted-path components."""
        root = {}
        for name, value in self.dump().items():
            node = root
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return root

    def format(self, pattern=None):
        """gem5-style text dump: one ``name  value  # desc`` line each.

        :param pattern: optional substring filter on stat names.
        """
        lines = []
        for name, value in self.dump().items():
            if pattern and pattern not in name:
                continue
            stat = self._stats[name]
            if isinstance(value, float):
                rendered = "%.6f" % value
            else:
                rendered = str(value)
            line = "%-44s %16s" % (name, rendered)
            if stat.desc:
                line += "  # %s" % stat.desc
            lines.append(line)
        return "\n".join(lines)

    def reset(self):
        """Zero every resettable stat."""
        for stat in self._stats.values():
            stat.reset()
