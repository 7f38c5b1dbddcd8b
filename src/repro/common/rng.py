"""Deterministic random-number utilities.

Every stochastic component in the reproduction (workload generators,
the randomised experiment design of Section 4.2) draws from a
:class:`DeterministicRng`, which is a thin wrapper over
:class:`random.Random` that adds named substreams.  Substreams let two
components share one experiment seed without their draws interleaving,
so adding a draw to the workload generator does not perturb the
experiment-ordering shuffle.
"""

import random
import zlib


class DeterministicRng:
    """A seeded random source with named, independent substreams.

    Parameters
    ----------
    seed:
        Master seed.  Equal seeds produce identical draw sequences on
        every platform (``random.Random`` guarantees this for its
        Mersenne Twister core).
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._random = random.Random(seed)

    def substream(self, name):
        """Return an independent :class:`DeterministicRng` for ``name``.

        The substream seed mixes the master seed with a CRC of the
        name, so distinct names yield uncorrelated streams and the
        mapping is stable across runs and platforms.
        """
        mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**63)
        return DeterministicRng(mixed)

    # -- draw helpers -------------------------------------------------

    def random(self):
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low, high):
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def shuffle(self, sequence):
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(sequence)

    def geometric(self, p):
        """Geometric variate: number of failures before first success.

        Used by tests of the footnote-3 excess-fault model.  ``p`` must
        be in (0, 1].
        """
        if not 0 < p <= 1:
            raise ValueError("p must be in (0, 1]")
        if p == 1:
            return 0
        count = 0
        while self._random.random() >= p:
            count += 1
        return count

    def draws(self):
        """Bound ``(random, getrandbits)`` for hot loops; draw ``[0, n)``
        with :func:`randbelow` to keep ``randrange``'s stream."""
        return self._random.random, self._random.getrandbits


def randbelow(getrandbits, n):
    """Uniform integer in ``[0, n)``, ``n >= 1``, drawn exactly as
    CPython's ``random.Random.randrange(n)`` draws it: a rejection
    loop over ``getrandbits(n.bit_length())``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
