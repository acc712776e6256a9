"""Binary hypothesis pairs on finite alphabets.

Observations live on finite discrete alphabets so every divergence, moment
generating function, and error probability downstream is an exact finite sum.
Probability vectors are validated at construction (never silently repaired)
and instances are immutable afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import EquivalenceViolation, InputError, UnknownSymbol

Symbol = int | str

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbol identifiers."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise InputError("alphabet must be non-empty")
        positions = {s: i for i, s in enumerate(self.symbols)}
        if len(positions) != len(self.symbols):
            raise InputError("alphabet symbols must be distinct")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        try:
            self.index(symbol)
        except UnknownSymbol:
            return False
        return True

    def index(self, symbol: Symbol) -> int:
        try:
            return self._positions[symbol]
        except (KeyError, TypeError):
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None


BINARY = Alphabet((0, 1))


class Direction(Enum):
    """Orientation of a divergence between the two hypotheses."""

    ZERO_ONE = "zero-one"  # divergence of the null law from the alternative
    ONE_ZERO = "one-zero"  # divergence of the alternative law from the null


_EXP_ZERO = -746.0  # np.exp is exactly 0.0 below -745.1332


def _exp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(x, out=out)`` of a 1-D array, bit for bit.  The runs of lanes
    below ``_EXP_ZERO`` at either end get 0.0 without an exp: numpy takes a
    scalar path there, about 15 times a normal lane's cost.  NaN is live."""
    if x.size == 0 or (x.item(0) >= _EXP_ZERO and x.item(-1) >= _EXP_ZERO):
        return np.exp(x, out=out)
    dead = x < _EXP_ZERO  # refilled for the reversed scan, as argmin copies a reversed view
    lo = int(np.argmin(dead))  # the first live lane, or 0 if none is
    hi = 0 if dead[lo] else x.size - int(np.argmin(np.less(x[::-1], _EXP_ZERO, out=dead)))
    out = np.empty_like(x) if out is None else out
    np.exp(x[lo:hi], out=out[lo:hi])
    out[:lo] = out[hi:] = 0.0
    return out


def _logsumexp(logs, out: np.ndarray | None = None) -> float:
    """log(sum(exp(logs))) with a max shift; -inf for an empty or all -inf input.

    Plain numpy rather than ``scipy.special.logsumexp``: most calls sum a
    handful of atoms, where scipy's per-call dispatch costs over ten times
    the arithmetic.  The exp runs through ``_exp``, as wide trees' tails reach
    e^-25000.  ``out``, if given, is scratch for the shifted logs, and may be ``logs``.
    """
    logs = np.asarray(logs, dtype=float)
    if logs.size == 0:
        return -math.inf
    top = float(logs.max())
    if not math.isfinite(top):
        return top
    shifted = np.subtract(logs, top, out=out)
    return top + math.log(float(_exp(shifted, out=shifted).sum()))


def _as_prob_array(values, size: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,):
        raise InputError(f"{label} must have one probability per symbol")
    # written so that NaN fails too
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise InputError(f"{label} entries must lie in [0, 1]")
    if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
        raise InputError(f"{label} must sum to 1 within {PROB_SUM_TOL}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DistributionPair:
    """A null/alternative pair of pmfs over a shared finite alphabet.

    The two laws must be equivalent: a symbol has positive probability under
    one hypothesis iff it does under the other.  Symbols that are dead under
    both hypotheses are tolerated (push-forwards drop them explicitly).
    """

    alphabet: Alphabet
    p0: np.ndarray
    p1: np.ndarray
    # (map, message pair) of the last ``channels.induced_pair``, map matched by identity
    _induced: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.alphabet)
        object.__setattr__(self, "p0", _as_prob_array(self.p0, n, "p0"))
        object.__setattr__(self, "p1", _as_prob_array(self.p1, n, "p1"))
        one_sided = (self.p0 > 0.0) != (self.p1 > 0.0)
        if np.any(one_sided):
            bad = [s for s, m in zip(self.alphabet, one_sided) if m]
            raise EquivalenceViolation(
                f"symbols {bad!r} have positive probability under exactly one hypothesis"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "DistributionPair":
        try:
            doc = json.loads(text)
            alphabet = Alphabet(tuple(doc["alphabet"]))
            return cls(alphabet, np.asarray(doc["p0"]), np.asarray(doc["p1"]))
        except KeyError as exc:
            raise InputError(f"pair document missing field {exc}") from None
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise InputError(f"malformed pair document: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphabet": list(self.alphabet),
                "p0": self.p0.tolist(),
                "p1": self.p1.tolist(),
            },
            sort_keys=True,
        )

    # -- lookups -----------------------------------------------------------

    @property
    def support(self) -> np.ndarray:
        """Mask of symbols alive under both hypotheses."""
        return self.p0 > 0.0

    @cached_property
    def _live_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only log masses of the live symbols under each hypothesis."""
        live = self.support
        logs = (np.log(self.p0[live]), np.log(self.p1[live]))
        for arr in logs:
            arr.flags.writeable = False
        return logs

    def __len__(self) -> int:
        return len(self.alphabet)


def bernoulli_pair(p: float) -> DistributionPair:
    """Pair on {0, 1}: the alternative puts mass ``p`` on 1, the null ``1 - p``."""
    if not 0.0 < p < 1.0:
        raise InputError("p must lie strictly inside (0, 1)")
    return DistributionPair(BINARY, np.array([p, 1.0 - p]), np.array([1.0 - p, p]))


def kl_divergence(pair: DistributionPair, direction: Direction) -> float:
    """Kullback-Leibler divergence between the two laws, in nats.

    Symbols dead under both hypotheses contribute zero.  Equivalence rules
    out one-sided zeros, so the sum is always finite.
    """
    logp0, logp1 = pair._live_logs
    if direction is Direction.ZERO_ONE:
        p, logp, logq = pair.p0, logp0, logp1
    else:
        p, logp, logq = pair.p1, logp1, logp0
    return float(np.sum(p[pair.support] * (logp - logq)))


def second_moment_null(pair: DistributionPair) -> float:
    """Second moment of the log-likelihood ratio under the null law."""
    logp0, logp1 = pair._live_logs
    llr = logp1 - logp0
    return float(np.sum(pair.p0[pair.support] * llr * llr))

