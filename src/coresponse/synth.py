"""Synthetic communities with a known planted co-response group.

The generator draws log-normal abundances, normalizes them, builds a
block-structured adjacency, and defines the functional variable as the sum
of the *convolved* planted columns plus Gaussian noise — so the planted
group is recoverable exactly through the graph step but only approximately
from raw columns.  The functional variable is standardized afterwards so
absolute penalty weights and AIC terms see a consistent scale across
instances; the correlation structure is unaffected.

All randomness comes from the counter-based Philox generator seeded from
``spec.seed``, making every bundle bit-identical across runs and
platforms.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .ingest import AbundanceMatrix, FunctionalVariable, css_normalize, write_abundance, write_function
from .network import CoOccurrenceNetwork, convolve, write_adjacency
from .tables import fmt, write_table
from .utils import seed_sequence

GROUND_TRUTH_COLUMNS = ("planted_index", "taxon_label", "expected_r")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    n_samples: int = 100
    n_taxa: int = 60
    n_blocks: int = 4
    intra_block_weight: float = 0.5
    inter_block_weight: float = 0.05
    planted_group: tuple = (0, 1, 2, 3, 4, 5)
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.n_samples, self.n_taxa, self.n_blocks) < 1:
            raise ValidationError("sample, taxon and block counts must be >= 1")
        if self.n_blocks > self.n_taxa:
            raise ValidationError("cannot have more blocks than taxa")
        planted = tuple(int(i) for i in self.planted_group)
        if not planted:
            raise ValidationError("planted group must not be empty")
        if len(set(planted)) != len(planted):
            raise ValidationError("planted group has duplicate indices")
        if min(planted) < 0 or max(planted) >= self.n_taxa:
            raise ValidationError("planted indices must lie in [0, n_taxa)")
        if self.inter_block_weight < 0 or self.intra_block_weight < self.inter_block_weight:
            raise ValidationError("need intra_block_weight >= inter_block_weight >= 0")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        object.__setattr__(self, "planted_group", planted)

    @property
    def expected_r(self) -> float:
        """Analytic correlation of the planted effect with y: 1/sqrt(1+sigma^2)."""
        return 1.0 / math.sqrt(1.0 + self.noise_sigma ** 2)


@dataclass(frozen=True)
class SynthBundle:
    """A generated dataset plus its ground truth."""

    spec: SynthSpec
    raw_abundance: AbundanceMatrix
    abundance: AbundanceMatrix
    network: CoOccurrenceNetwork
    function: FunctionalVariable
    planted: tuple
    expected_r: float


def block_adjacency(n_taxa: int, n_blocks: int, intra: float, inter: float) -> np.ndarray:
    """Equal-size-block adjacency: ``intra`` within, ``inter`` across, zero diagonal."""
    sizes = [chunk.size for chunk in np.array_split(np.arange(n_taxa), n_blocks)]
    block_of = np.repeat(np.arange(n_blocks), sizes)
    same = block_of[:, None] == block_of[None, :]
    adjacency = np.where(same, float(intra), float(inter))
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def generate(spec: SynthSpec) -> SynthBundle:
    """Deterministically generate one dataset from a spec."""
    rng = np.random.Generator(np.random.Philox(seed_sequence(spec.seed)))
    n, p = spec.n_samples, spec.n_taxa
    width = max(2, len(str(max(n, p))))
    sample_ids = tuple(f"S{i + 1:0{width}d}" for i in range(n))
    taxon_labels = tuple(f"T{j + 1:0{width}d}" for j in range(p))

    raw = AbundanceMatrix(rng.lognormal(0.0, 1.0, size=(n, p)),
                          sample_ids, taxon_labels)
    normalized = css_normalize(raw)
    network = CoOccurrenceNetwork(
        block_adjacency(p, spec.n_blocks, spec.intra_block_weight,
                        spec.inter_block_weight),
        taxon_labels,
    )

    planted = np.array(spec.planted_group, dtype=np.int64)
    signal = convolve(normalized, network)[:, planted].sum(axis=1)
    sd = float(signal.std())
    if sd == 0.0:
        raise ValidationError("planted signal has zero variance")
    y = signal + rng.normal(0.0, spec.noise_sigma * sd, size=n)
    sd_y = float(y.std())
    if sd_y == 0.0:
        raise ValidationError("functional variable degenerated to a constant")
    y = (y - y.mean()) / sd_y

    return SynthBundle(
        spec=spec,
        raw_abundance=raw,
        abundance=normalized,
        network=network,
        function=FunctionalVariable(y, "function"),
        planted=tuple(int(i) for i in np.sort(planted)),
        expected_r=spec.expected_r,
    )


def write_bundle(bundle: SynthBundle, outdir, delimiter: str = ",") -> dict:
    """Write the raw abundance, function, adjacency and ground-truth files.

    The abundance file holds the *raw* draws so the normal ingest step
    (filter + normalization) reproduces ``bundle.abundance`` exactly.
    Returns the mapping of logical names to paths.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "abundance": outdir / "abundance.csv",
        "function": outdir / "function.csv",
        "adjacency": outdir / "adjacency.csv",
        "ground_truth": outdir / "ground_truth.csv",
    }
    write_abundance(bundle.raw_abundance, paths["abundance"], delimiter)
    write_function(bundle.function, bundle.raw_abundance.sample_ids,
                   paths["function"], delimiter)
    write_adjacency(bundle.network, paths["adjacency"], delimiter)
    rows = [
        [str(i), bundle.network.taxon_labels[i], fmt(bundle.expected_r)]
        for i in bundle.planted
    ]
    write_table(paths["ground_truth"], list(GROUND_TRUTH_COLUMNS), rows,
                delimiter)
    return paths
