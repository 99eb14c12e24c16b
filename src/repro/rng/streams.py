"""Per-rank independent random streams built on :class:`numpy.random.SeedSequence`.

The paper's algorithms draw three kinds of random variates per node *t*:

* ``k`` — a uniform random existing node (Line 3 of Algorithm 3.1 / Line 4 of
  Algorithm 3.2),
* ``c`` — a uniform variate in ``[0, 1)`` deciding between the direct
  attachment and the copy attachment,
* ``l`` — for the general case, a uniform index into ``F_k``.

On a real MPI cluster each rank owns an independent stream and draws the
variates for the nodes it owns.  We reproduce that structure exactly: a
:class:`StreamFactory` derives one child :class:`numpy.random.SeedSequence`
per ``(rank, purpose)`` pair, so

* two ranks never share a stream (independence),
* re-running with the same seed reproduces the identical graph,
* the event-driven and the bulk (BSP) implementations can be driven from the
  *same* streams and therefore produce bit-identical graphs, which is how the
  test-suite cross-validates them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["CounterStream", "StreamFactory", "rank_stream", "spawn_streams"]

#: Upper bound on the "purpose" namespace.  Purposes are small integers; each
#: (rank, purpose) pair maps to a unique child of the root seed sequence.
_PURPOSE_SPACE = 64

# SplitMix64 finalizer constants (Steele/Lea/Flood; also xxHash's avalanche).
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
#: Weyl increments decorrelating the slot and draw axes of the counter.
_PHI64 = np.uint64(0x9E3779B97F4A7C15)
_DRAW_STEP = np.uint64(0xC2B2AE3D27D4EB4F)
_INV_2_53 = float(2.0 ** -53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 avalanche: every input bit flips each output bit w.p. ~1/2.

    Operates in place on (and returns) ``z``, which must be a uint64 array
    the caller owns; integer overflow wraps mod 2**64 by design.
    """
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


class CounterStream:
    """Counter-based, O(1)-seekable stream of uniforms.

    Where :meth:`StreamFactory.stream` returns a *sequential* generator (a
    fresh PCG64 positioned at its start — reaching draw ``i`` means
    generating draws ``0..i-1`` first), a counter stream is a pure function
    ``(slot, draw) -> uniform``: any draw is recomputable in O(1) without
    touching its predecessors, and the evaluation is vectorised over whole
    slot arrays.  This is the primitive the communication-free generators
    (:mod:`repro.core.commfree`) are built on — every rank can re-derive any
    other rank's variates locally instead of requesting them in messages.

    The mapping is SplitMix64 over a keyed Weyl-composed counter
    ``k0 + slot * phi + draw * step`` with a final xor of the second key;
    the two 64-bit keys are derived from the owning factory's root
    :class:`numpy.random.SeedSequence` and the namespace key, so distinct
    ``(seed, key)`` pairs give independent streams while equal pairs are
    bit-reproducible across processes (the object is trivially picklable
    and fork-safe: its state is two integers).

    Examples
    --------
    >>> cs = StreamFactory(7).counter_substream(9, 0, 0)
    >>> bool(np.all(cs.uniforms(np.arange(4)) ==
    ...             StreamFactory(7).counter_substream(9, 0, 0).uniforms(np.arange(4))))
    True
    >>> float(cs.uniforms(3)) == float(cs.uniforms(np.array([5, 3, 1]))[1])
    True
    """

    __slots__ = ("_k0", "_k1")

    def __init__(self, entropy, key: tuple[int, ...]) -> None:
        child = np.random.SeedSequence(entropy=entropy, spawn_key=key)
        k0, k1 = child.generate_state(2, dtype=np.uint64)
        self._k0 = np.uint64(k0)
        self._k1 = np.uint64(k1)

    def hashes(self, slot, draw=0) -> np.ndarray:
        """Raw 64-bit hash words for ``(slot, draw)`` pairs.

        ``slot`` and ``draw`` are integers or integer arrays (broadcast
        together); the result has the broadcast shape, dtype uint64 with all
        64 bits uniform.  ``hashes(s, d)`` depends only on the stream's key
        and ``(s, d)`` — never on what was drawn before — which is what
        makes any draw O(1)-recomputable by any rank.  Hot callers split
        one word into several bounded variates instead of paying one hash
        per variate (see :mod:`repro.core.commfree`).
        """
        scalar = np.ndim(slot) == 0 and np.ndim(draw) == 0
        z = np.atleast_1d(np.asarray(slot, dtype=np.uint64)) * _PHI64
        d = np.atleast_1d(np.asarray(draw, dtype=np.uint64))
        if d.shape == (1,) and z.shape != (1,):
            if d[0]:
                z += d * _DRAW_STEP
        else:
            z = z + d * _DRAW_STEP
        z += self._k0
        z = _mix64(z)
        z ^= self._k1
        return z[0] if scalar else z

    def uniforms(self, slot, draw=0) -> np.ndarray:
        """Uniform variates in ``[0, 1)`` for ``(slot, draw)`` pairs.

        Float64 view of :meth:`hashes` with 53 random bits per variate.
        """
        return (self.hashes(slot, draw) >> np.uint64(11)) * _INV_2_53

    def __getstate__(self):
        return (int(self._k0), int(self._k1))

    def __setstate__(self, state):
        self._k0 = np.uint64(state[0])
        self._k1 = np.uint64(state[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterStream):
            return NotImplemented
        return self._k0 == other._k0 and self._k1 == other._k1

    def __hash__(self) -> int:
        return hash((int(self._k0), int(self._k1)))

    def __repr__(self) -> str:
        return f"CounterStream(k0={int(self._k0):#x}, k1={int(self._k1):#x})"


class StreamFactory:
    """Derive independent :class:`numpy.random.Generator` streams from one seed.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` draws entropy from the OS (non-reproducible).

    Examples
    --------
    >>> f = StreamFactory(42)
    >>> g0 = f.stream(rank=0)
    >>> g1 = f.stream(rank=1)
    >>> g0 is not g1
    True
    >>> f2 = StreamFactory(42)
    >>> bool(np.all(f2.stream(0).integers(0, 100, 8) == StreamFactory(42).stream(0).integers(0, 100, 8)))
    True
    """

    def __init__(self, seed: int | None = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self.seed = seed

    def stream(self, rank: int, purpose: int = 0) -> np.random.Generator:
        """Return the generator for ``(rank, purpose)``.

        The same ``(rank, purpose)`` pair always yields a *fresh* generator
        positioned at the start of the same underlying stream, so callers that
        need to re-draw an identical sequence (e.g. the cross-validation
        between the BSP and event-driven engines) simply request the stream
        again.
        """
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if not 0 <= purpose < _PURPOSE_SPACE:
            raise ValueError(f"purpose must be in [0, {_PURPOSE_SPACE}), got {purpose}")
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=(rank, purpose),
        )
        return np.random.Generator(np.random.PCG64(child))

    def streams(self, ranks: Iterable[int], purpose: int = 0) -> list[np.random.Generator]:
        """Vector form of :meth:`stream`."""
        return [self.stream(r, purpose) for r in ranks]

    def counter_substream(self, *key: int) -> CounterStream:
        """Return the counter-based, O(1)-seekable substream for ``key``.

        The communication-free generators ask "give me draw ``(slot, d)``
        of the keyed stream, for a whole *array* of slots, without
        generating anything that came before".  Callers namespace ``key``
        with a leading constant; 2-element keys are rejected, since they
        would collide with the ``(rank, purpose)`` keys of :meth:`stream`.
        Equal ``(seed, key)`` yield bit-identical draws in any process,
        which is what makes every rank able to recompute any other rank's
        variates locally.
        """
        if len(key) == 2:
            raise ValueError(
                "2-element substream keys collide with (rank, purpose) "
                "stream keys; prepend a namespace constant"
            )
        return CounterStream(self._root.entropy, tuple(int(k) for k in key))


def rank_stream(seed: int | None, rank: int, purpose: int = 0) -> np.random.Generator:
    """Convenience wrapper: one-off stream for ``(seed, rank, purpose)``."""
    return StreamFactory(seed).stream(rank, purpose)


def spawn_streams(seed: int | None, nranks: int, purpose: int = 0) -> list[np.random.Generator]:
    """Return one independent generator for each of ``nranks`` ranks."""
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    return StreamFactory(seed).streams(range(nranks), purpose)
