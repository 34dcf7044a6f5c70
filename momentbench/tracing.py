"""Self-time tracing of the package's public functions, from outside it.

:class:`Tracer` replaces each public function of ``sdemoments`` with a
timing wrapper in every module namespace that holds it (``moments`` calls
``expm`` through its own imported name, for example) and puts the
originals back on :meth:`Tracer.uninstall`. A span's self time is its
duration minus the time of the wrapped calls nested in it. ``numpy.kron``
gets a counting wrapper only, so its time stays with its caller.
Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

#: functions traced, by module; make_result is public though not exported
TRACED = {
    "model": ("classify", "parse_model", "load_model"),
    "kron": ("kron", "kron_sum", "kron_sum_vec", "vec", "unvec", "hilbert"),
    "moments": ("build_beta", "build_C", "build_script_B", "build_calA",
                "assemble", "moments_at", "propagate_grid", "make_result"),
    "expm": ("expm", "expm_action"),
    "oracle": ("moment_ode_rhs", "rk4_moments", "euler_maruyama_mc"),
    "cli": ("main",),
}
#: model construction, traced through the dataclasses' validation hooks
BUILD_HOOKS = ("LinearSde", "MomentState")

BUILDERS = ("build_beta", "build_C", "build_script_B", "build_calA")


class Tracer:
    """Per-span call counts, self times and total times, reset once per pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.mc_paths = 0
        self.numpy_kron_calls = 0
        self._stack = []  # [span name, seconds of nested spans]
        self._patches = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.mc_paths = 0
        self.numpy_kron_calls = 0

    def _span(self, name: str, fn, on_call=None):
        stack, calls, self_s, total_s = (self._stack, self.calls, self.self_s,
                                         self.total_s)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            # dense exponentials of the projected Krylov matrix count apart
            key = (name + "@action" if name == "expm.expm" and stack
                   and stack[-1][0] == "expm.expm_action" else name)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - frame[1]
                total_s[key] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function wherever a loaded sdemoments module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == "sdemoments" or name.startswith("sdemoments.")]
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"sdemoments.{short}"]
            for fname in names:
                fn = getattr(module, fname)
                hook = self._count_paths if fname == "euler_maruyama_mc" else None
                wrappers[id(fn)] = self._span(f"{short}.{fname}", fn, hook)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        model = sys.modules["sdemoments.model"]
        for cls_name in BUILD_HOOKS:
            cls = getattr(model, cls_name)
            self._patch(cls, "__post_init__",
                        self._span("model.build", cls.__post_init__))
        self._patch(np, "kron", self._count_numpy_kron(np.kron))

    def _count_paths(self, sde, state, t, config) -> None:
        self.mc_paths += config.n_paths

    def _count_numpy_kron(self, kron):
        def counted(*args, **kwargs):
            self.numpy_kron_calls += 1
            return kron(*args, **kwargs)
        counted.__wrapped__ = kron
        return counted

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (ms) accumulated since reset."""
        c, s = self.calls, self.self_s
        ms = lambda *keys: 1e3 * sum(s[k] for k in keys)  # noqa: E731
        kron_keys = [f"kron.{f}" for f in TRACED["kron"]]
        builder_keys = [f"moments.{f}" for f in BUILDERS]
        return {
            "model.build_ms": ms("model.build"),
            "model.classify_calls": c["model.classify"],
            "model.classify_ms": ms("model.classify"),
            "model.load_model_ms": ms("model.load_model", "model.parse_model"),
            "cli.main_ms": ms("cli.main"),
            "moments.assemble_calls": c["moments.assemble"],
            "moments.assemble_ms": ms("moments.assemble"),
            "moments.builder_calls": sum(c[k] for k in builder_keys),
            "moments.builders_ms": ms(*builder_keys),
            "kron.calls": sum(c[k] for k in kron_keys),
            "numpy.kron_calls": self.numpy_kron_calls,
            "expm.dense_calls": c["expm.expm"],
            "expm.dense_ms": ms("expm.expm"),
            "expm.action_calls": c["expm.expm_action"],
            "expm.action_ms": ms("expm.expm_action", "expm.expm@action"),
            "expm.action_inner_expm_calls": c["expm.expm@action"],
            "moments.make_result_calls": c["moments.make_result"],
            "moments.make_result_ms": ms("moments.make_result"),
            "moments.glue_ms": ms("moments.moments_at", "moments.propagate_grid"),
            "oracle.rhs_calls": c["oracle.moment_ode_rhs"],
            "oracle.rhs_ms": ms("oracle.moment_ode_rhs"),
            "oracle.rk4_ms": ms("oracle.rk4_moments"),
            "oracle.mc_ms": ms("oracle.euler_maruyama_mc"),
            "oracle.mc_paths": self.mc_paths,
        }
