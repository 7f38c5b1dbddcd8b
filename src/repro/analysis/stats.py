"""Small-sample statistics for repetition-based experiments.

The paper ran five repetitions of each Table 4.1 point with a
randomised design; these helpers summarise such samples.  Implemented
directly (mean, unbiased standard deviation, normal-approximation
confidence interval) — the sample sizes are tiny and the uses
descriptive, so pulling in heavier statistics machinery would buy
nothing.
"""

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Descriptive summary of one measured quantity."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def sem(self):
        """Standard error of the mean (0 for a single observation)."""
        if self.n < 2:
            return 0.0
        return self.std / math.sqrt(self.n)

    def ci95(self):
        """Approximate 95% confidence half-width (normal z=1.96).

        With n=5 this understates the t-interval slightly; the
        experiments use it for error bars, not hypothesis tests.
        """
        return 1.96 * self.sem

    def __str__(self):
        if self.n == 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ± {self.ci95():.2g}"


def summarize(values: Sequence[float]) -> Summary:
    """Summarise a non-empty sequence of observations."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("cannot summarise an empty sample")
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in data) / (n - 1)
    else:
        variance = 0.0
    return Summary(
        n=n,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(data),
        maximum=max(data),
    )


def relative(values: Sequence[float], baseline: Sequence[float]):
    """Paired ratios of two equal-length samples (policy vs MISS)."""
    if len(values) != len(baseline):
        raise ValueError("samples must pair up")
    return [
        v / b if b else float("nan") for v, b in zip(values, baseline)
    ]


@dataclass(frozen=True)
class PairedComparison:
    """A paired-difference analysis of two policies' repetitions.

    Each repetition of a Table 4.1 point runs every policy on the same
    seed, so differences pair naturally: comparing pairwise removes
    the between-seed workload variance that dominates raw comparisons.
    """

    n: int
    mean_difference: float
    std_difference: float
    consistent_sign: bool  # every pair differed in the same direction

    @property
    def sem(self):
        if self.n < 2:
            return 0.0
        return self.std_difference / math.sqrt(self.n)

    def ci95(self):
        """Approximate 95% half-width of the mean difference."""
        return 1.96 * self.sem

    @property
    def clearly_nonzero(self):
        """Whether the 95% interval excludes zero (n >= 2 only)."""
        if self.n < 2:
            return False
        return abs(self.mean_difference) > self.ci95()

    def __str__(self):
        verdict = (
            "clear" if self.clearly_nonzero
            else "within noise" if self.n >= 2
            else "single run"
        )
        return (
            f"Δ = {self.mean_difference:+.4g} ± {self.ci95():.2g} "
            f"({verdict})"
        )


def paired(values: Sequence[float], baseline: Sequence[float]):
    """Build a :class:`PairedComparison` of matched repetitions."""
    if len(values) != len(baseline):
        raise ValueError("samples must pair up")
    if not values:
        raise ValueError("cannot compare empty samples")
    differences = [v - b for v, b in zip(values, baseline)]
    summary = summarize(differences)
    signs = {d > 0 for d in differences if d != 0}
    return PairedComparison(
        n=summary.n,
        mean_difference=summary.mean,
        std_difference=summary.std,
        consistent_sign=len(signs) <= 1,
    )
