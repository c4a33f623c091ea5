"""Per-layer call counts and self time, recorded from outside the package.

The tracer wraps the public functions named in :data:`LAYERS` and rebinds
every name under ``pqlucas`` that refers to one of them.  Rebinding only
``pqlucas.bounds.bound_a2`` would miss ``pqlucas.cli.bound_a2`` and the
``pqlucas`` re-exports, because ``from .bounds import bound_a2`` copies the
reference.  Calls made through a module attribute (``bnd.bound_a2``) or a
module global (``theta`` inside ``BoundInputs.theta``) see the rebinding as
long as it is installed.

A span's self time is its wall time minus the wall time of the traced spans
it called; time in untraced helpers stays with the nearest traced caller.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "oracle": ("sweep_max", "verify_bounds", "random_inputs", "closed_form_bound"),
    "bounds": ("theta", "theta_is_zero", "bound_a2", "bound_a3", "fekete_szego_bound"),
    "series": ("revert_series", "pow_real", "mul", "div", "compose"),
    "bioperator": (
        "extract_coefficient_identities",
        "apply_operator",
        "apply_operator_inverse_side",
        "check_membership_realpart",
    ),
    "lucas": ("lucas_sequence", "generating_series", "eval_poly"),
    "cli": (
        "main",
        "build_parser",
        "cmd_table",
        "cmd_verify",
        "cmd_operator",
        "cmd_member",
        "cmd_lucas",
    ),
}

# Marks a wrapper so that a scan can prove none is left installed.
_MARK = "__bench_span__"


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "pqlucas" or name.startswith("pqlucas."))
    ]


def installed_wrappers() -> list[str]:
    """Names under ``pqlucas`` that are currently bound to a tracer wrapper."""
    return [
        f"{module.__name__}.{key}"
        for module in _package_modules()
        for key, value in vars(module).items()
        if hasattr(value, _MARK)
    ]


class Tracer:
    """Aggregated spans for the functions in :data:`LAYERS`.

    ``install()`` and ``uninstall()`` swap the bindings; counts and times
    accumulate across installs until the tracer is discarded.  Functions
    missing from the package are skipped and report zero.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.grid_points = 0
        self.member_points = 0
        self.member_flagged = 0
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        # Keyed by id(): module dicts also hold unhashable values.
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"pqlucas.{layer}"]
            for fname in names:
                span = f"{layer}.{fname}"
                self.calls[span] = 0
                self.self_s[span] = 0.0
                original = getattr(module, fname, None)
                if original is not None:
                    wrappers[id(original)] = (original, self._wrap(span, original))
        for module in _package_modules():
            for key, value in vars(module).items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, key, value, entry[1]))

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    def install(self) -> None:
        for module, key, _original, wrapper in self._bindings:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _wrapper in self._bindings:
            setattr(module, key, original)

    def _observe(self, span: str, result) -> None:
        if span == "oracle.sweep_max":
            self.grid_points += result.grid_n**3
        elif span == "bioperator.check_membership_realpart":
            self.member_points += result.n_evaluated
            self.member_flagged += len(result.flagged)

    def _wrap(self, span: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        observe = span in ("oracle.sweep_max", "bioperator.check_membership_realpart")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[span] += 1
                self_s[span] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe:
                self._observe(span, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, span)
        return wrapper

    def metrics(self) -> dict[str, float]:
        """``<layer>.<f>.calls``, ``<layer>.<f>.self_s`` and ``<layer>.self_s``."""
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            total = 0.0
            for fname in names:
                span = f"{layer}.{fname}"
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
                total += self.self_s[span]
            out[f"{layer}.self_s"] = total
        out["oracle.grid_points"] = self.grid_points
        out["bioperator.member_points"] = self.member_points
        out["bioperator.member_flagged"] = self.member_flagged
        return out
