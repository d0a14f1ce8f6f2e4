"""Seeded dataset generators for the benchmark workloads.

Every dataset is a pure function of (seed, workload, index), so the same
seed always yields the same files.  Every run processes each of a
workload's datasets at least once, cycling through them until its time
is up, and the traced run replays each once; so which datasets a run
checks, and which of them fail, depends on the seed alone.

The workloads timed by BENCHMARK.json, ``many-small`` and ``score-large``,
are sized so that a run is unlikely to meet one of the program's aborts:
its GRS and RTS stages abort on about one in several thousand tiny plain
datasets, on one in 100 to 350 with n=25 to 100, and on about one in ten
vrs datasets with n=80; scoring alone has not been seen to abort.  ``report-vrs``
and ``frontier-crs`` (the moderately sized reports) and the
``robustness`` grid are for runs by hand, to show the failures and the
layer shares, and are not timed by BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """One generated input: observations plus the CLI flags it runs with."""

    name: str
    inputs: np.ndarray   # m x n
    outputs: np.ndarray  # s x n
    scheme: str
    regime: str
    variant: str
    command: str = "report"

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    def units(self) -> list[str]:
        return [f"U{j:03d}" for j in range(self.n)]

    def argv(self, path: Path) -> list[str]:
        return [self.command, "--data", str(path), "--format", "json",
                "--scheme", self.scheme, "--regime", self.regime]

    def csv_text(self) -> str:
        m, s = self.inputs.shape[0], self.outputs.shape[0]
        header = ["dmu"] + [f"in:x{k + 1}" for k in range(m)] + \
                 [f"out:y{k + 1}" for k in range(s)]
        lines = [",".join(header)]
        for j, unit in enumerate(self.units()):
            # repr round-trips a float exactly, so the reference sees
            # the very numbers the program parses
            cells = [repr(float(v)) for v in self.inputs[:, j]]
            cells += [repr(float(v)) for v in self.outputs[:, j]]
            lines.append(unit + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _uniform(rng, rows: int, n: int, low: float = 1.0, high: float = 10.0):
    return rng.uniform(low, high, size=(rows, n))


def _report_vrs(rng, k: int) -> Dataset:
    return Dataset(f"vrs80-{k:03d}", _uniform(rng, 5, 80), _uniform(rng, 3, 80),
                   "ram", "vrs", "plain")


def _frontier_crs(rng, k: int) -> Dataset:
    return Dataset(f"crs250-{k:03d}", _uniform(rng, 5, 250), _uniform(rng, 3, 250),
                   "ram", "crs", "plain")


def _score_large(rng, k: int) -> Dataset:
    return Dataset(f"score250-{k:03d}", _uniform(rng, 5, 250), _uniform(rng, 3, 250),
                   "ram", "crs" if k % 2 else "vrs", "plain", command="efficiency")


_SCHEME_CYCLE = ("ram", "additive", "bam")


def _many_small(rng, k: int) -> Dataset:
    # every seed gets the same 27 shapes, so that only the values, not
    # the mix of sizes, change between seeds
    m, s = 1 + k // 3 % 3, 1 + k // 9 % 3
    n = 4 + 2 * (k % 7)
    return Dataset(f"small-{k:03d}", _uniform(rng, m, n), _uniform(rng, s, n),
                   _SCHEME_CYCLE[k % 3], "vrs", "plain")


def _robustness(rng, k: int) -> Dataset:
    n = int(rng.integers(4, 17))
    m = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    inputs = _uniform(rng, m, n)
    outputs = _uniform(rng, s, n)
    # variants of the robustness grid, one dataset in six each
    variant = {1: "shift", 3: "rescale", 5: "negative"}.get(k % 6, "plain")
    if variant == "shift":
        inputs = inputs + 1e4
        outputs = outputs + 1e4
    elif variant == "rescale":
        inputs = inputs * 10.0 ** rng.uniform(-5, 5, size=(m, 1))
        outputs = outputs * 10.0 ** rng.uniform(-5, 5, size=(s, 1))
    elif variant == "negative":
        outputs = _uniform(rng, s, n, -5.0, 10.0)
    regime = "crs" if k % 4 == 3 else "vrs"
    return Dataset(f"small-{k:03d}", inputs, outputs,
                   _SCHEME_CYCLE[k % 3], regime, variant)


@dataclass(frozen=True)
class Workload:
    name: str
    key: int        # mixed into the seed so workloads never share data
    count: int      # datasets per seed; every run processes each at least once
    make: object    # (rng, index) -> Dataset


WORKLOADS = {
    w.name: w for w in (
        Workload("many-small", 6, 27, _many_small),
        Workload("score-large", 7, 4, _score_large),
        # by hand only: the program aborts on some of their datasets
        Workload("report-vrs", 1, 3, _report_vrs),
        Workload("frontier-crs", 2, 4, _frontier_crs),
        Workload("robustness", 3, 150, _robustness),
    )
}


def dataset(workload: Workload, seed: int, k: int) -> Dataset:
    """The k-th dataset of ``workload`` under ``seed``."""
    rng = np.random.default_rng([seed, workload.key, k])
    return workload.make(rng, k)
