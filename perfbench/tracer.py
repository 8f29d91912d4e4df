"""Span tracer that measures enmsim's layers from outside the package.

:meth:`Tracer.install` must run before enmsim is first imported.  It

* wraps the numpy and scipy entry points the package calls
  (``numpy.linalg.eigvalsh``, ``scipy.integrate.quad``/``solve_ivp``,
  ``scipy.optimize.minimize``/``minimize_scalar``) with counters, and
* adds an import hook that, as each ``enmsim.*`` module finishes
  executing, replaces its public functions (and the entries of its
  module-level dispatch tables) with span-recording wrappers.

Because the wrappers are in place before any ``from x import y`` runs, a
later change that moves an import or a function is still counted.

Spans (name, start, end, parent) stay in memory and are written out when
the run ends; self time is a span's duration minus that of its child
spans.  Spans and counts are recorded only inside :meth:`Tracer.op`, so
imports, warm-up and the benchmark's own checks are left out.  Leaf
counters (rate functions, expressions, quadrature integrands, eigvalsh)
record no spans; their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("import.enmsim_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.format.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("covariant.channel_at.calls", "count", "lower"),
    ("covariant.channel_at.self_s", "s", "lower"),
    ("covariant.rate_integrals.self_s", "s", "lower"),
    ("covariant.optimal_dephasing_rate.calls", "count", "lower"),
    ("covariant.choi_state.self_s", "s", "lower"),
    ("rates.evals", "count", "lower"),
    ("quad.calls", "count", "lower"),
    ("quad.integrand_evals", "count", "lower"),
    ("expressions.evals", "count", "lower"),
    ("expressions.self_s", "s", "lower"),
    ("lindblad.propagate.self_s", "s", "lower"),
    ("ode.rhs_evals", "count", "lower"),
    ("lindblad.closest_product_state.calls", "count", "lower"),
    ("lindblad.closest_product_state.self_s", "s", "lower"),
    ("nelder_mead.evals", "count", "lower"),
    ("lindblad.intermediate_map.self_s", "s", "lower"),
    ("lindblad.is_cp_divisible.self_s", "s", "lower"),
    ("correlations.correlation_table.self_s", "s", "lower"),
    ("correlations.negativity.self_s", "s", "lower"),
    ("correlations.mutual_information.self_s", "s", "lower"),
    ("correlations.xstate_discord.self_s", "s", "lower"),
    ("correlations.geometric_discord.self_s", "s", "lower"),
    ("correlations.discord_brute_force.self_s", "s", "lower"),
    ("discord.polish_calls", "count", "lower"),
    ("discord.polish_evals", "count", "lower"),
    ("discord.polish_s", "s", "lower"),
    ("discord.interior_wins", "count", "higher"),
    ("discord.polish_useful_ratio", "ratio", "higher"),
    ("discord.brute_force_fallbacks", "count", "lower"),
    ("qstate.von_neumann_entropy.calls", "count", "lower"),
    ("qstate.von_neumann_entropy.self_s", "s", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eigvalsh.matrices", "count", "lower"),
    ("metrology.fisher_information.self_s", "s", "lower"),
    ("tomography.spectrum_moduli.self_s", "s", "lower"),
    ("parallel.ordered_map.self_s", "s", "lower"),
    *[
        (f"verification.{suite}.wall_s", "s", "lower")
        for suite in (
            "roundtrip", "subadditivity", "monotonicity", "discord-oracle",
            "negativity-law", "optimal-rate", "saturation", "limits", "coherence",
            "qfi", "decay-bound", "enm", "spectrum", "dominance",
        )
    ],
    ("trace.overhead_s", "s", "lower"),
]

#: Self-time metrics: the span names they sum ("x.y*" matches a prefix).
SELF_SPANS = {
    "cli.parse_config.self_s": ["cli.parse_config", "cli.build_parser"],
    "cli.format.self_s": ["cli.format_csv", "cli.format_json", "cli.emit"],
    "cli.run.self_s": ["cli.run", "cli.cmd_*", "cli.rates_from_config", "cli.time_grid"],
    "covariant.channel_at.self_s": ["covariant.channel_at"],
    "covariant.rate_integrals.self_s": [
        "covariant.rate_integrals", "covariant.optimal_dephasing_integral"],
    "covariant.choi_state.self_s": ["covariant.choi_state"],
    "lindblad.propagate.self_s": ["lindblad.propagate"],
    "lindblad.closest_product_state.self_s": ["lindblad.closest_product_state"],
    "lindblad.intermediate_map.self_s": ["lindblad.intermediate_map"],
    "lindblad.is_cp_divisible.self_s": ["lindblad.is_cp_divisible"],
    "correlations.correlation_table.self_s": ["correlations.correlation_table"],
    "correlations.negativity.self_s": ["correlations.negativity"],
    "correlations.mutual_information.self_s": ["correlations.mutual_information"],
    "correlations.xstate_discord.self_s": [
        "correlations.xstate_discord", "correlations.xstate_discord_details"],
    "correlations.geometric_discord.self_s": ["correlations.geometric_discord"],
    "correlations.discord_brute_force.self_s": ["correlations.discord_brute_force"],
    "qstate.von_neumann_entropy.self_s": ["qstate.von_neumann_entropy"],
    "metrology.fisher_information.self_s": ["metrology.fisher_information"],
    "tomography.spectrum_moduli.self_s": ["tomography.spectrum_moduli"],
    "parallel.ordered_map.self_s": ["parallel.ordered_map"],
}

#: Call-count metrics: the span whose calls they count.
CALL_SPANS = {
    "covariant.channel_at.calls": "covariant.channel_at",
    "covariant.optimal_dephasing_rate.calls": "covariant.optimal_dephasing_rate",
    "lindblad.closest_product_state.calls": "lindblad.closest_product_state",
    "qstate.von_neumann_entropy.calls": "qstate.von_neumann_entropy",
}

#: The three measurements the X-state discord evaluates before polishing.
CANDIDATE_KL = {(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self._wrappers: dict = {}
        self._absorbed: list[dict] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """Record one benchmark op as a root span; counters run only inside it."""
        self.active = True
        index = self._open(self._id("op." + kind))
        try:
            yield
        finally:
            self._close(index)
            self.active = False

    def count(self, key: str, n: int = 1) -> None:
        if self.active:
            self.counts[key] += n

    def wrap(self, name: str, fn, on_result=None):
        """A span-recording wrapper around fn; on_result may replace the result."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                result = fn(*args, **kwargs)
            else:
                index = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            return on_result(result) if on_result else result

        self._wrappers[fn] = wrapper
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _counting_rate(self, fn):
        """Count and time each call of a compiled rate expression."""

        def rate(t):
            if not self.active:
                return fn(t)
            start = time.perf_counter()
            try:
                return fn(t)
            finally:
                self.times["expressions.self_s"] += time.perf_counter() - start
                self.counts["expressions.evals"] += 1

        return rate

    def _discord_outcome(self, result):
        if self.active:
            witness = getattr(result, "witness", None)
            if getattr(result, "method", None) == "brute-force":
                self.counts["discord.brute_force_fallbacks"] += 1
            elif witness is not None and (witness.k, witness.l) not in CANDIDATE_KL:
                self.counts["discord.interior_wins"] += 1
        return result

    def instrument(self, module) -> None:
        """Wrap the public functions of one enmsim module and its dispatch tables."""
        short = module.__name__.rsplit(".", 1)[-1]
        post = {
            "compile_rate_expression": self._counting_rate,
            "xstate_discord_details": self._discord_outcome,
        }
        for name, obj in list(vars(module).items()):
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                setattr(module, name, self.wrap(f"{short}.{name}", obj, post.get(name)))
        for name, table in vars(module).items():
            if isinstance(table, dict) and not name.startswith("__"):
                for key, value in list(table.items()):
                    if callable(value) and value in self._wrappers:
                        table[key] = self._wrappers[value]

    def _patch_libraries(self) -> None:
        import numpy.linalg
        import scipy.integrate
        import scipy.optimize

        tracer = self
        eigvalsh = numpy.linalg.eigvalsh

        def counted_eigvalsh(a, *args, **kwargs):
            if tracer.active:
                shape = np.shape(a)
                tracer.counts["linalg.eigvalsh.calls"] += 1
                tracer.counts["linalg.eigvalsh.matrices"] += int(np.prod(shape[:-2]))
            return eigvalsh(a, *args, **kwargs)

        quad = scipy.integrate.quad

        def counted_quad(func, *args, **kwargs):
            if not tracer.active:
                return quad(func, *args, **kwargs)
            tracer.counts["quad.calls"] += 1

            def integrand(*x):
                tracer.counts["quad.integrand_evals"] += 1
                return func(*x)

            return quad(integrand, *args, **kwargs)

        solve_ivp = scipy.integrate.solve_ivp

        def counted_solve_ivp(fun, *args, **kwargs):
            if not tracer.active:
                return solve_ivp(fun, *args, **kwargs)

            def rhs(*x):
                tracer.counts["ode.rhs_evals"] += 1
                return fun(*x)

            return solve_ivp(rhs, *args, **kwargs)

        minimize = scipy.optimize.minimize
        minimize_sig = inspect.signature(minimize)

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            if tracer.active:
                method = minimize_sig.bind(*args, **kwargs).arguments.get("method")
                if str(method).lower() == "nelder-mead":
                    tracer.counts["nelder_mead.evals"] += int(result.nfev)
            return result

        minimize_scalar = scipy.optimize.minimize_scalar

        def counted_minimize_scalar(*args, **kwargs):
            if not tracer.active:
                return minimize_scalar(*args, **kwargs)
            start = time.perf_counter()
            result = minimize_scalar(*args, **kwargs)
            tracer.times["discord.polish_s"] += time.perf_counter() - start
            tracer.counts["discord.polish_calls"] += 1
            tracer.counts["discord.polish_evals"] += int(result.nfev)
            return result

        numpy.linalg.eigvalsh = counted_eigvalsh
        scipy.integrate.quad = counted_quad
        scipy.integrate.solve_ivp = counted_solve_ivp
        scipy.optimize.minimize = counted_minimize
        scipy.optimize.minimize_scalar = counted_minimize_scalar

    def install(self) -> None:
        if any(m == "enmsim" or m.startswith("enmsim.") for m in sys.modules):
            raise RuntimeError("install the tracer before enmsim is imported")
        self._patch_libraries()
        sys.meta_path.insert(0, _EnmsimFinder(self))

    # -- results -------------------------------------------------------------

    def span_arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        return name, start, end, parent

    def per_name(self):
        """Self time, inclusive time and calls summed per span name."""
        name, start, end, parent = self.span_arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        n = len(self.names)
        return (
            np.bincount(name, weights=duration - child, minlength=n),
            np.bincount(name, weights=duration, minlength=n),
            np.bincount(name, minlength=n),
        )

    def op_seconds(self) -> float:
        """Summed duration of the op spans."""
        name, start, end, _ = self.span_arrays()
        ops = [i for i, n in enumerate(self.names) if n.startswith("op.")]
        return float((end - start)[np.isin(name, ops)].sum())

    def _matching(self, patterns) -> list[int]:
        return [
            i for i, n in enumerate(self.names)
            if any(n == p or (p.endswith("*") and n.startswith(p[:-1])) for p in patterns)
        ]

    def absorb(self, layers: dict) -> None:
        """Add the per-layer metrics of a traced child process to this run's."""
        if self.active:
            self._absorbed.append(layers)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer measures (import and overhead excepted).

        Metrics absorbed from traced child processes are added in.
        """
        self_t, incl_t, calls = self.per_name()
        metrics = {}
        for metric, patterns in SELF_SPANS.items():
            metrics[metric] = float(self_t[self._matching(patterns)].sum())
        for metric, span in CALL_SPANS.items():
            metrics[metric] = int(calls[self._matching([span])].sum())
        for metric, _, _ in PER_LAYER:
            if metric.startswith("verification."):
                suite = metric.split(".")[1].replace("-", "_")
                metrics[metric] = float(incl_t[self._matching([f"verification.check_{suite}"])].sum())
        for key in ("rates.evals", "quad.calls", "quad.integrand_evals", "expressions.evals",
                    "ode.rhs_evals", "nelder_mead.evals", "discord.polish_calls",
                    "discord.polish_evals", "discord.interior_wins",
                    "discord.brute_force_fallbacks", "linalg.eigvalsh.calls",
                    "linalg.eigvalsh.matrices"):
            metrics[key] = int(self.counts[key])
        for key in ("expressions.self_s", "discord.polish_s"):
            metrics[key] = float(self.times[key])
        for child in self._absorbed:
            for key in metrics:
                metrics[key] += child[key]
        polish = metrics["discord.polish_calls"]
        metrics["discord.polish_useful_ratio"] = (
            metrics["discord.interior_wins"] / polish if polish else 0.0
        )
        return metrics

    def save(self, path: str) -> None:
        name, start, end, parent = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent)


class _EnmsimFinder(importlib.abc.MetaPathFinder):
    """Finds enmsim modules normally and instruments each after it executes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "enmsim" and not fullname.startswith("enmsim."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            execute(module)
            tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec
