"""Seeded benchmark inputs, written without the program's own writer.

Populations come from a Gaussian mixture in the documented JSONL format,
so two commits under comparison read byte-identical files. Query targets
are drawn from the same seed and kept only when their exact oracle
neighbourhood holds at least ``MIN_DENSITY`` of the population: below that
a pilot can miss every true neighbour, which the program reports as a
degenerate query and the benchmark would count as a failed operation.

The module also restates the program's documented seeding scheme
(SHA-256 ``derive_seed`` and ``SeedSequence`` streams) so the grid checker
can rebuild each cell's sample and pilot on its own.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

DIM = 16
CLUSTERS = 8
CENTER_SCALE = 4.0
PROXY_NOISE = 0.4
ATTR_MEAN, ATTR_SD = 80.0, 10.0
ATTR_BOUNDS = (50.0, 120.0)
RADIUS = 6.0
MIN_DENSITY = 0.05

_MASK64 = (1 << 64) - 1


def population(n: int, seed: int) -> dict[str, np.ndarray]:
    """Attributes plus oracle and proxy embeddings for ``n`` objects."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, n, 1]))
    centers = rng.normal(0.0, CENTER_SCALE, size=(CLUSTERS, DIM))
    assign = rng.permutation(np.arange(n) % CLUSTERS)
    oracle = centers[assign] + rng.normal(0.0, 1.0, size=(n, DIM))
    proxy = oracle + rng.normal(0.0, PROXY_NOISE, size=(n, DIM))
    attrs = np.clip(rng.normal(ATTR_MEAN, ATTR_SD, size=n), *ATTR_BOUNDS)
    return {"attrs": attrs, "oracle": oracle, "proxy": proxy}


def write_jsonl(pop: dict[str, np.ndarray], path: str) -> None:
    """Header line, then one object per line; ``features`` repeat the oracle row.

    Floats are written with ``repr``, the shortest text that parses back to
    the same double, as ``json.dumps`` would write them.
    """
    header = {"feature_dim": DIM, "embedding_dim": DIM, "attr_bounds": list(ATTR_BOUNDS)}
    attrs = pop["attrs"].tolist()
    oracle = pop["oracle"].tolist()
    proxy = pop["proxy"].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, attr in enumerate(attrs):
            o = ", ".join(map(repr, oracle[i]))
            p = ", ".join(map(repr, proxy[i]))
            fh.write(
                f'{{"id": {i}, "attr": {attr!r}, "features": [{o}], '
                f'"oracle_emb": [{o}], "proxy_emb": [{p}]}}\n'
            )


def neighbourhood(oracle: np.ndarray, q: int, r: float = RADIUS) -> np.ndarray:
    """Sorted ids within oracle distance ``r`` of object ``q``, boundary included."""
    d = np.linalg.norm(oracle - oracle[q], axis=1)
    return np.nonzero(d <= r)[0]


def pick_targets(oracle: np.ndarray, k: int, seed: int) -> list[int]:
    """``k`` distinct seeded query targets whose neighbourhood density is at least MIN_DENSITY."""
    n = oracle.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed & _MASK64, n, 2]))
    targets = []
    for q in rng.permutation(n):
        if neighbourhood(oracle, int(q)).size >= MIN_DENSITY * n:
            targets.append(int(q))
            if len(targets) == k:
                return targets
    raise ValueError(f"fewer than {k} targets reach density {MIN_DENSITY}")


def _tag_to_int(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return int.from_bytes(hashlib.sha256(str(tag).encode("utf-8")).digest()[:8], "big")


def derive_seed(seed: int, *tags: object) -> int:
    material = ",".join(str(_tag_to_int(t)) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(material.encode("ascii")).digest()[:8], "big")


def spawn_rng(seed: int, *tags: object) -> np.random.Generator:
    entropy = [int(seed) & _MASK64] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def cell_sample_and_pilot(
    n: int, s: int, s_p: int, grid_seed: int, qi: int, trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sample and pilot the experiment harness draws for one (query, trial) block."""
    cell_seed = derive_seed(grid_seed, "cell", qi, trial)
    sample = np.sort(spawn_rng(cell_seed, "sample").choice(n, size=s, replace=False))
    pilot = np.sort(spawn_rng(cell_seed, "pilot").choice(sample, size=s_p, replace=False))
    return sample, pilot
