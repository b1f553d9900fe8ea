"""Spans around the public functions of each riordan layer, from outside.

``Tracer.install()`` replaces every wrapped function or method with a
recording wrapper.  Module-level functions are rebound at every import
site: each loaded ``riordan`` module whose global names the original
object gets the wrapper instead, because ``cli`` and ``fixtures`` import
``pseudo_from_g``, ``extract_az`` and others by name.  ``uninstall()``
puts the originals back.

Spans are only recorded while an op is open (``begin_op``/``end_op``), so
the benchmark's own checks run through the wrappers unrecorded.  Spans are
kept in memory as tuples and summarised (or written out) at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "arrays", "production", "constructions", "exprs", "fixtures", "cli")

# (module, class or None, attribute, span name).  __rmul__ is an alias of
# __mul__; __rtruediv__ is left alone because it calls ``o / self``, which
# reaches the wrapped __truediv__.
WRAPPED = (
    ("riordan.series", "TruncSeries", "compose", "series.compose"),
    ("riordan.series", "TruncSeries", "reverse", "series.reverse"),
    ("riordan.series", "TruncSeries", "__mul__", "series.mul"),
    ("riordan.series", "TruncSeries", "__rmul__", "series.mul"),
    ("riordan.series", "TruncSeries", "__truediv__", "series.div"),
    ("riordan.series", "TruncSeries", "sqrt", "series.sqrt"),
    ("riordan.series", "TruncSeries", "__pow__", "series.pow"),
    ("riordan.arrays", "RiordanPair", "expand", "arrays.expand"),
    ("riordan.arrays", "RiordanPair", "__mul__", "arrays.group_mul"),
    ("riordan.arrays", "RiordanPair", "inverse", "arrays.inverse"),
    ("riordan.arrays", "RiordanPair", "apply", "arrays.apply"),
    ("riordan.arrays", "RiordanPair", "involution_failure", "arrays.involution_check"),
    ("riordan.arrays", "RiordanPair", "pseudo_involution_failure", "arrays.involution_check"),
    ("riordan.production", None, "production_matrix", "production.production_matrix"),
    ("riordan.production", None, "az_from_series", "production.az_from_series"),
    ("riordan.production", None, "extract_az", "production.extract_az"),
    ("riordan.constructions", None, "pseudo_from_g", "constructions.pseudo_from_g"),
    ("riordan.constructions", None, "stochastic_from_g", "constructions.stochastic_from_g"),
    ("riordan.constructions", None, "named_series", "constructions.named_series"),
    ("riordan.exprs", None, "parse", "exprs.parse"),
    ("riordan.exprs", None, "eval_series", "exprs.eval_series"),
    ("riordan.fixtures", "Fixture", "run", "fixtures.run"),
    ("riordan.cli", None, "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in WRAPPED))

# spans that hash their TruncSeries arguments for the repeat shares
_REPEAT_KEYED = {"series.compose": lambda args: args[1].coeffs,
                 "series.reverse": lambda args: args[0].coeffs}


def _bits(x) -> int:
    """Largest numerator/denominator bit length in a series result."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in x.coeffs)


class Tracer:
    """Records spans (op id, span id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: Counter = Counter()
        self.repeats: Counter = Counter()
        self.out_bits_max = 0
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._counted_errors: set[int] = set()
        self._saved: list[tuple] = []

    # ---- ops ----

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen = defaultdict(set)

    def end_op(self) -> None:
        self.op_id = None
        self._seen = {}
        self._counted_errors.clear()

    # ---- wrapping ----

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        repeat_key = _REPEAT_KEYED.get(name)
        is_series = layer == "series"
        is_fixture = name == "fixtures.run"
        tracer = self
        from riordan.errors import RiordanError

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if repeat_key is not None:
                key = repeat_key(args)
                seen = tracer._seen[name]
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            label = f"fixtures.{args[0].id}" if is_fixture else None
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except RiordanError as e:
                # counted once, by the innermost wrapped layer it leaves
                if id(e) not in tracer._counted_errors:
                    tracer._counted_errors.add(id(e))
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (tracer.op_id, span_id, parent, name,
                                         start, end, label)
            if is_series and result is not NotImplemented:
                tracer.out_bits_max = max(tracer.out_bits_max, _bits(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Swap in the wrappers at every site that names a wrapped function."""
        for module_name, cls_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original))
                self._saved.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "riordan"
                                         or other_name.startswith("riordan.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
                        self._saved.append((other, key, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # ---- results ----

    def dump(self, path: str) -> None:
        """Write the spans and counters as JSON (used by child processes)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "errors": dict(self.errors),
                       "repeats": dict(self.repeats),
                       "out_bits_max": self.out_bits_max}, fh)

    def absorb(self, path: str, op_id: int) -> None:
        """Append the spans a child process wrote, renumbered under ``op_id``."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for _, span_id, parent, name, start, end, label in data["spans"]:
            self.spans.append((op_id, base + span_id,
                               base + parent if parent >= 0 else -1,
                               name, start, end, label))
        self.errors.update(data["errors"])
        self.repeats.update(data["repeats"])
        self.out_bits_max = max(self.out_bits_max, data["out_bits_max"])

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time, repeat shares, bit height, errors.

        Self time is a span's duration minus the time its direct children
        cover; spans of one thread nest, so children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        fixture_s: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end, label in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
            if label is not None:
                fixture_s[label] += end - start
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        metrics["series.compose.repeat_inner_share"] = _share(
            self.repeats["series.compose"], calls["series.compose"])
        metrics["series.reverse.repeat_share"] = _share(
            self.repeats["series.reverse"], calls["series.reverse"])
        metrics["series.out_bits_max"] = self.out_bits_max
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = self.errors[layer]
        metrics.update({f"{label}.s": s for label, s in fixture_s.items()})
        return metrics


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

