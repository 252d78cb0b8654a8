"""Spans around the calls into each symkoop layer, for the traced runs.

The wrappers live here, in the benchmark; nothing under ``src/`` changes.
A traced function is replaced under every name it is bound to in the
symkoop modules, because ``from .dynamics import step`` copies ``step``
into ``groups`` and ``equivariant`` (and ``koopman`` binds ``lift`` and
``snapshots`` the same way): wrapping only the defining module would miss
those calls. ``scenarios.ALL_CHECKS`` holds one check function directly,
so its entries are replaced too.

A span is ``[id, name, start, end, parent, counts]``. ``dynamics.step``
runs about 75k times per ``verify`` op, so its spans are aggregated per
parent into a call count and summed seconds instead of being stored one by
one; that keeps the tracing overhead small enough to report.
"""

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arguments(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _is_signed_permutation(m):
    nonzero = m != 0.0
    return bool(
        np.all(nonzero.sum(axis=0) == 1)
        and np.all(nonzero.sum(axis=1) == 1)
        and np.all(np.abs(m[nonzero]) == 1.0)
    )


# Counters take the traced function and return f(args, kwargs, result) ->
# {count name: value}. They run after the span has closed.

def _simulate_counts(fn):
    bind = _arguments(fn)

    def count(args, kwargs, result):
        a = bind(args, kwargs)
        return {"steps": int(a["n_steps"]) + int(a["discard"])}

    return count


def _file_bytes(fn):
    bind = _arguments(fn)
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(bind(args, kwargs)["path"])
    }


def _lift_counts(fn):
    return lambda args, kwargs, result: {
        "columns": result[0].shape[1] + result[1].shape[1]
    }


def _representation_counts(fn):
    bind = _arguments(fn)

    def count(args, kwargs, result):
        # the same path choice induced_representation makes: exact for
        # identity dictionaries and for monomials under signed permutations
        a = bind(args, kwargs)
        kind = a["dictionary"].kind
        exact = kind == "identity" or (
            kind == "monomial" and _is_signed_permutation(a["g"].matrix)
        )
        return {"probe_calls": 0 if exact else 1}

    return count


def _fit_counts(fn):
    return lambda args, kwargs, result: {
        "rank_used": result.rank_used, "features": result.size,
    }


def _group_counts(fn):
    return lambda args, kwargs, result: {"order": result.order}


def _stabilizer_counts(fn):
    bind = _arguments(fn)

    def count(args, kwargs, result):
        # computed from the input sizes, not measured: one N x N x dim
        # float64 distance tensor per group element
        a = bind(args, kwargs)
        n, dim = np.atleast_2d(np.asarray(a["states"])).shape
        return {"tensor_bytes": a["group"].order * n * n * dim * 8}

    return count


# (traced name, aggregate per parent, counter factory)
TARGETS = (
    ("dynamics.step", True, None),
    ("dynamics.simulate", False, _simulate_counts),
    ("dynamics.snapshots", False, None),
    ("dynamics.save_trajectory", False, _file_bytes),
    ("dynamics.load_trajectory", False, _file_bytes),
    ("dictionaries.lift", False, _lift_counts),
    ("dictionaries.induced_representation", False, _representation_counts),
    ("koopman.fit_edmd", False, _fit_counts),
    ("koopman.spectrum", False, None),
    ("koopman.predict", False, None),
    ("groups.generate_group", False, _group_counts),
    ("groups.check_axioms", False, None),
    ("groups.check_equivariance", False, None),
    ("equivariant.transport_case1", False, None),
    ("equivariant.assemble_global", False, None),
    ("equivariant.global_predict", False, None),
    ("equivariant.verify_conjugation", False, None),
    ("equivariant.verify_invariant_set_image", False, None),
    ("equivariant.data_stabilizer_labels", False, _stabilizer_counts),
    ("scenarios.check_group_axioms", False, None),
    ("scenarios.check_equivariance", False, None),
    ("scenarios.check_conjugation_exact", False, None),
    ("scenarios.check_conjugation_statistical", False, None),
    ("scenarios.check_spectrum_invariance", False, None),
    ("scenarios.check_commutation_symmetric", False, None),
    ("scenarios.check_invariant_set_image", False, None),
    ("cli.main", False, None),
)

# counts that report the largest value seen in an op; the others are summed
MAX_COUNTS = {"order"}


class Tracer:
    """Installs wrappers on a package's modules and records spans per op."""

    def __init__(self, package="symkoop"):
        self._package = package
        self._wrappers = None
        self._patches = []
        self.begin_op()

    def _modules(self):
        prefix = self._package + "."
        return [m for name, m in sorted(sys.modules.items())
                if name == self._package or name.startswith(prefix)]

    def _wrap(self, name, fn, hot, counter):
        if hot:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    key = (self._stack[-1], name)
                    cell = self._hot.get(key)
                    if cell is None:
                        self._hot[key] = [1, elapsed]
                    else:
                        cell[0] += 1
                        cell[1] += elapsed
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._next_id, name, 0.0, 0.0, self._stack[-1], None]
            self._next_id += 1
            self._stack.append(span[0])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                self._spans.append(span)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def _build(self):
        # keyed by id: module namespaces hold unhashable values too; each
        # wrapper's closure keeps its original alive, so ids stay unique
        self._wrappers = {}
        for name, hot, counter in TARGETS:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{self._package}.{module_name}"], attr)
            self._wrappers[id(original)] = self._wrap(
                name, original, hot, counter(original) if counter else None)

    def install(self):
        """Replace every binding of each traced function by its wrapper."""
        if self._wrappers is None:
            self._build()
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
        checks = sys.modules[f"{self._package}.scenarios"].ALL_CHECKS
        for i, (check_name, fn) in enumerate(checks):
            wrapper = self._wrappers.get(id(fn))
            if wrapper is not None:
                checks[i] = (check_name, wrapper)
                self._patches.append((checks, i, (check_name, fn)))

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)

    def begin_op(self):
        self._spans = []
        self._hot = {}
        self._stack = [0]  # span 0 is the op itself
        self._next_id = 1

    def end_op(self):
        """Per-layer statistics of the op just traced, and its spans.

        Self time is a span's duration minus the time its child spans
        (aggregated ones included) cover.
        """
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self._spans:
            child[parent] += end - start
        for (parent, _), (_, seconds) in self._hot.items():
            child[parent] += seconds

        stats = {}
        for name, _, _ in TARGETS:
            stats[f"{name}.calls"] = 0
            stats[f"{name}.self_s"] = 0.0
        for sid, name, start, end, parent, counts in self._spans:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (end - start) - child[sid]
            for key, value in (counts or {}).items():
                metric = f"{name}.{key}"
                previous = stats.get(metric, 0)
                stats[metric] = (max(previous, value) if key in MAX_COUNTS
                                 else previous + value)
        for (_, name), (calls, seconds) in self._hot.items():
            stats[f"{name}.calls"] += calls
            stats[f"{name}.self_s"] += seconds

        spans = {
            "spans": self._spans,
            "aggregated": [[parent, name, calls, seconds]
                           for (parent, name), (calls, seconds) in self._hot.items()],
        }
        self.begin_op()
        return stats, spans
