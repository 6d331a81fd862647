"""Seeded benchmark workloads.

Every workload is a list of instances generated from the benchmark seed
alone; the library only ever receives the generated arrays. The budget of
each instance is derived from its data so that the pair graph has a fixed
number of edges: the pair sweep, the candidate enumeration that grows from
it and the pair LP then do about the same work for every seed, which keeps
run-to-run spread low without pinning the data itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optloss import data


@dataclass
class Instance:
    name: str
    dataset: data.LabeledDataset
    epsilon: float
    m_max: int
    queries: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def epsilon_for_pair_edges(points: np.ndarray, labels: np.ndarray, target: int) -> float:
    """Budget at which exactly ``target`` cross-class pairs are within 2*eps.

    Uses the same Gram-form squared distances as the library's pair sweep
    and puts 2*eps halfway between the target-th and the next cross-class
    distance, far from the library's 1e-9 relative decision band.
    """
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    iu, ju = np.triu_indices(points.shape[0], 1)
    cross = d2[iu, ju][labels[iu] != labels[ju]]
    if not 0 < target < cross.size:
        raise ValueError(f"target {target} outside (0, {cross.size}) cross-class pairs")
    a, b = np.partition(cross, [target - 1, target])[[target - 1, target]]
    return float((np.sqrt(a) + np.sqrt(b)) / 4.0)


def _queries(rng: np.random.Generator, points: np.ndarray, epsilon: float,
             count: int) -> np.ndarray:
    """Support points plus isotropic noise of norm about epsilon."""
    base = points[rng.integers(0, points.shape[0], size=count)]
    d = points.shape[1]
    return base + (epsilon / np.sqrt(d)) * rng.standard_normal((count, d))


def _gaussian_2d(seed: int, per_class: int, pair_edges: int, m_max: int,
                 queries: int, name: str) -> list[Instance]:
    ds = data.gen_gaussian(3, per_class, seed=int(_rng(seed, 0).integers(2**31)))
    eps = epsilon_for_pair_edges(ds.points, ds.labels, pair_edges)
    return [Instance(name, ds, eps, m_max, _queries(_rng(seed, 1), ds.points, eps, queries))]


def pairs_2d(seed: int) -> list[Instance]:
    return _gaussian_2d(seed, per_class=350, pair_edges=11_000, m_max=2,
                        queries=2500, name="G350")


def triples_2d(seed: int) -> list[Instance]:
    return _gaussian_2d(seed, per_class=50, pair_edges=3_600, m_max=3,
                        queries=4000, name="G50")


# Shape of the d = 784 stand-in: points per class, rank of each class's
# subspace, side of the simplex of class means, log-normal sigma of the
# per-point scale, isotropic noise, target pair edges and queries.
MNIST_PER_CLASS = 200
MNIST_RANK = 8
MNIST_SIDE = 6.0
MNIST_SCALE_SIGMA = 0.5
MNIST_NOISE = 0.05
MNIST_PAIR_EDGES = 2000
MNIST_QUERIES = 100


def mnist_like_784d(seed: int) -> list[Instance]:
    """Offline stand-in for MNIST {1,4,7}: three classes in d = 784.

    Class means sit on a regular simplex; each class varies in its own
    random low-rank subspace with a log-normal per-point scale, plus
    isotropic noise. Low intrinsic rank and the scale spread keep distances
    from concentrating at one value, as in real digits.
    """
    d, k, per = 784, 3, MNIST_PER_CLASS
    rng = _rng(seed, 0)
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    means = basis.T * (MNIST_SIDE / np.sqrt(2.0))
    blocks = []
    for c in range(k):
        sub, _ = np.linalg.qr(rng.standard_normal((d, MNIST_RANK)))
        coeff = rng.standard_normal((per, MNIST_RANK))
        scale = rng.lognormal(0.0, MNIST_SCALE_SIGMA, size=(per, 1))
        blocks.append(means[c] + (scale * coeff) @ sub.T
                      + MNIST_NOISE * rng.standard_normal((per, d)))
    points = np.vstack(blocks)
    labels = np.repeat(np.arange(k), per)
    ds = data.from_arrays(points, labels, provenance=f"mnist-like(seed={seed})")
    eps = epsilon_for_pair_edges(ds.points, ds.labels, MNIST_PAIR_EDGES)
    return [Instance(f"M{per}", ds, eps, k,
                     _queries(_rng(seed, 1), ds.points, eps, MNIST_QUERIES))]


# (classes, points per class, dimension) of each tiny instance. The schedule
# is fixed so that only the coordinates change with the seed. Four classes
# only in d >= 3: in the plane their enclosing-ball fallbacks swing the work
# of one seed against another by more than the whole batch would otherwise.
SMALL_SHAPES = [(3, 10, 2), (4, 7, 3), (3, 10, 3), (4, 7, 4), (3, 10, 4), (4, 7, 3)] * 4
SMALL_PAIR_SHARE = 0.5  # share of the cross-class pairs that are pair edges
SMALL_QUERIES = 500


def small_batch(seed: int) -> list[Instance]:
    """Tiny instances with m_max = K: hard loss and degree-4 extension run."""
    out = []
    for i, (k, per, d) in enumerate(SMALL_SHAPES):
        rng = _rng(seed, 100 + i)
        means = rng.standard_normal((k, d))
        labels = np.repeat(np.arange(k), per)
        points = means[labels] + 0.6 * rng.standard_normal((k * per, d))
        ds = data.from_arrays(points, labels, provenance=f"small(seed={seed},i={i})")
        cross = (k * per) ** 2 * (k - 1) // (2 * k)
        eps = epsilon_for_pair_edges(ds.points, ds.labels, int(SMALL_PAIR_SHARE * cross))
        out.append(Instance(f"S{i}-K{k}-d{d}", ds, eps, k,
                            _queries(rng, ds.points, eps, SMALL_QUERIES)))
    return out


WORKLOADS = {
    "pairs-2d": pairs_2d,
    "triples-2d": triples_2d,
    "mnist-like-784d": mnist_like_784d,
    "small-batch": small_batch,
}


def warmup_instance(seed: int) -> Instance:
    """Tiny K = 3 instance that touches every code path before timing."""
    ds = data.gen_gaussian(3, 6, seed=seed)
    return Instance("warmup", ds, 2.6, 3, ds.points[:4] + 0.1)
