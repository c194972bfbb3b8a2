"""Split a cProfile profile's self-time between the package's modules.

Frames in ``freeradial/<module>.py`` belong to layer ``<module>``; frames in
the benchmark's own files belong to ``harness``.  Every other frame --
builtins, ``fractions``, dataclass-generated methods (filename ``<string>``),
the rest of the standard library -- does work on behalf of whoever called
it, so its self-time is passed to its callers in proportion to the time
the pstats caller table records under each caller, repeatedly, until it
lands on an owned frame.  Time that cannot be traced to an owned frame
(no callers, or a cycle among pass-through frames) goes to ``harness``.
Each frame's time is split exactly once, so the layer totals sum to the
profile's total time.
"""

from __future__ import annotations

import os
from typing import Callable

Key = tuple[str, int, str]
Stats = dict  # pstats.Stats(...).stats: Key -> (cc, nc, tt, ct, callers)

HARNESS = "harness"


def owner_rule(package_dir: str, harness_dir: str) -> Callable[[str], str | None]:
    package_dir = os.path.realpath(package_dir)
    harness_dir = os.path.realpath(harness_dir)

    def owner(filename: str) -> str | None:
        if filename.startswith(("<", "~")):
            return None
        real = os.path.realpath(filename)
        folder = os.path.dirname(real)
        if folder == package_dir:
            return os.path.splitext(os.path.basename(real))[0]
        if folder == harness_dir:
            return HARNESS
        return None

    return owner


def layer_self_times(stats: Stats, owner: Callable[[str], str | None]) -> dict[str, float]:
    """Self-time per layer, with pass-through frames charged to callers."""
    shares: dict[Key, dict[str, float]] = {}

    def resolve(key: Key, active: frozenset[Key]) -> tuple[dict[str, float], bool]:
        """Layer shares of ``key``'s time, and whether a cycle cut them short
        (such results depend on the path and are not memoized)."""
        if key in shares:
            return shares[key], False
        layer = owner(key[0])
        if layer is not None:
            shares[key] = {layer: 1.0}
            return shares[key], False
        edges = stats[key][4]
        cut = any(c in active for c in edges)
        callers = {c: v for c, v in edges.items() if c not in active}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            return {HARNESS: 1.0}, cut
        mix: dict[str, float] = {}
        for caller, weight in weights.items():
            caller_mix, caller_cut = resolve(caller, active | {key})
            cut = cut or caller_cut
            for name, share in caller_mix.items():
                mix[name] = mix.get(name, 0.0) + share * weight / total
        if not cut:
            shares[key] = mix
        return mix, cut

    out: dict[str, float] = {}
    for key, (_, _, tt, _, _) in stats.items():
        for layer, share in resolve(key, frozenset())[0].items():
            out[layer] = out.get(layer, 0.0) + tt * share
    return out


def function_entries(stats: Stats, owner: Callable[[str], str | None], layer: str, name: str):
    """Profile rows of every function called ``name`` in ``layer``."""
    return [
        (key, value) for key, value in stats.items()
        if key[2] == name and owner(key[0]) == layer
    ]


def calls(stats: Stats, owner, layer: str, name: str) -> int:
    return sum(v[1] for _, v in function_entries(stats, owner, layer, name))


def cumulative(stats: Stats, owner, layer: str, name: str) -> float:
    return sum(v[3] for _, v in function_entries(stats, owner, layer, name))


def calls_from(stats: Stats, owner, layer: str, name: str, caller_layer: str, caller: str) -> int:
    """How many calls of ``layer.name`` came directly from ``caller_layer.caller``."""
    callers = {k for k, _ in function_entries(stats, owner, caller_layer, caller)}
    return sum(
        edge[1]
        for _, value in function_entries(stats, owner, layer, name)
        for c, edge in value[4].items()
        if c in callers
    )
