"""Per-layer counters gathered by wrapping the package's module attributes.

The package itself is not instrumented.  :meth:`Tracer.install` replaces
selected functions in their modules with timing wrappers; every caller that
looks the function up through its module (``convolution.quad``,
``special.rho``, ``oracle.smooth_numbers`` inside ``oracle`` itself, ...)
then goes through the wrapper.  :meth:`Tracer.uninstall` puts the originals
back.

Each wrapped call is a span.  ``busy_s`` is the span's wall time and
``self_s`` subtracts the time spent in wrapped calls it made.  An exception
counts as one error of the module where it leaves the outermost wrapped
call of that module, so an error raised three wrapped calls deep inside
``oracle`` is counted once.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _scalar_or_vector(args, kwargs):
    return "scalar" if np.ndim(args[0]) == 0 else "vector"


def _mc_path(args, kwargs):
    return "int64" if args[0].k <= 62 else "bigint"


def _count_elems(work, args, kwargs, result):
    if np.ndim(args[0]) != 0:
        work["elems"] += np.size(args[0])


def _count_generated(work, args, kwargs, result):
    work["generated"] += result.size


def _count_sieve(work, args, kwargs, result):
    work["entries"] += result.spf.size
    work["bytes_computed"] += result.spf.nbytes + result.primes.nbytes


def _count_samples(work, args, kwargs, result):
    work["samples"] += args[1]


def _count_exit(work, args, kwargs, result):
    if result != 0:
        work["nonzero_exits"] += 1


# (module, attribute, classify, count).  ``classify`` splits one function
# into sites by its arguments; ``count`` adds work counters from the result.
WRAPPED = (
    ("special", "rho", _scalar_or_vector, _count_elems),
    ("special", "omega", _scalar_or_vector, _count_elems),
    ("special", "build_dickman_table", None, None),
    ("special", "build_buchstab_table", None, None),
    ("convolution", "quad", None, None),
    ("convolution", "tau", None, None),
    ("convolution", "conv_omega_rho", None, None),
    ("convolution", "conv_omega_rho_prime", None, None),
    ("convolution", "conv_rho_rho", None, None),
    ("estimators", "eta", None, None),
    ("estimators", "wp", None, None),
    ("estimators", "theta_estimate", None, None),
    ("estimators", "psi_estimate_hildebrand", None, None),
    ("estimators", "psi_estimate_saias", None, None),
    ("estimators", "phi_estimate", None, None),
    ("estimators", "s_estimate", None, None),
    ("estimators", "lemma6_estimate", None, None),
    ("estimators", "lemma4_bound", None, None),
    ("oracle", "build_sieve", None, _count_sieve),
    ("oracle", "smooth_numbers", None, _count_generated),
    ("oracle", "smooth_part", None, None),
    ("oracle", "theta_exact", None, None),
    ("oracle", "theta_exact_decomposed", None, None),
    ("oracle", "psi_exact", None, None),
    ("oracle", "phi_exact", None, None),
    ("oracle", "s_exact", None, None),
    ("oracle", "weighted_smooth_sum", None, None),
    ("oracle", "eta_empirical", _mc_path, _count_samples),
    ("validation", "run_suite", None, None),
    ("cli", "main", None, _count_exit),
)


class Tracer:
    """Spans and counters for the wrapped functions, kept in memory."""

    def __init__(self):
        # site name -> counter name -> value; site names look like
        # "special.rho.scalar" or "oracle.build_sieve".
        self.sites: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [module, seconds in wrapped children]
        self._saved: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every entry of :data:`WRAPPED`; ``modules`` maps short names
        to the imported package modules."""
        for mod_name, attr, classify, count in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self._wrapper(original, f"{mod_name}.{attr}", mod_name, classify, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name, mod_name, classify, count):
        sites, errors, stack = self.sites, self.errors, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            site = sites[f"{name}.{classify(args, kwargs)}" if classify else name]
            frame = [mod_name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except SystemExit as exc:  # argparse rejects bad argv this way
                if count is not None:
                    count(site, args, kwargs, exc.code)
                raise
            except Exception:
                if len(stack) < 2 or stack[-2][0] != mod_name:
                    errors[mod_name] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                site["calls"] += 1
                site["busy_s"] += dt
                site["self_s"] += dt - frame[1]
            if count is not None:
                count(site, args, kwargs, result)
            return result

        return wrapper
