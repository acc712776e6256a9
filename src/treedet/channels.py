"""Transmission functions and quantizer families.

A transmission function is a total deterministic map from a node's inputs to
one outgoing message symbol.  Leaves map their own observation (arity 0);
relays map the tuple of incoming messages (arity d).  The one-bit normalized
log-likelihood-ratio quantizer used at relays is parametric in a real
threshold, so it is not a table here; the evaluator applies it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateFamily,
    EnumerationTooLarge,
    InputError,
    InvalidParams,
)
from .hypotheses import (
    BINARY,
    Alphabet,
    Direction,
    DistributionPair,
    Symbol,
    kl_divergence,
)
from .topology import _integer

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class TransmissionFunction:
    """Total deterministic map from input tuples to an output symbol.

    ``arity`` counts incoming messages: 0 for a leaf (whose single input is
    its observation), d >= 1 for a relay fusing d messages.
    """

    arity: int
    input_alphabets: tuple[Alphabet, ...]
    output_alphabet: Alphabet
    table: Mapping[tuple[Symbol, ...], Symbol]
    name: str = ""

    def __post_init__(self) -> None:
        expected_inputs = 1 if self.arity == 0 else self.arity
        if self.arity < 0:
            raise InvalidParams("arity must be >= 0")
        if len(self.input_alphabets) != expected_inputs:
            raise InvalidParams(
                f"arity {self.arity} requires {expected_inputs} input alphabet(s)"
            )
        domain = list(itertools.product(*[a.symbols for a in self.input_alphabets]))
        table = dict(self.table)
        missing = [t for t in domain if t not in table]
        if missing:
            raise InvalidParams(f"table not total: missing {missing[:3]!r}...")
        inside = set(domain)
        extra = [t for t in table if t not in inside]
        if extra:
            raise InvalidParams(f"table has entries outside the domain: {extra[:3]!r}")
        outputs = set(self.output_alphabet)
        bad = [y for y in table.values() if not isinstance(y, Hashable) or y not in outputs]
        if bad:
            raise InvalidParams(f"outputs {bad[:3]!r} not in the output alphabet")
        object.__setattr__(self, "table", table)

    def __call__(self, *inputs: Symbol) -> Symbol:
        try:
            return self.table[tuple(inputs)]
        except KeyError:
            raise InputError(f"inputs {inputs!r} outside the domain") from None

    def to_json(self) -> str:
        return json.dumps(
            {
                "arity": self.arity,
                "inputs": [list(a) for a in self.input_alphabets],
                "output": list(self.output_alphabet),
                "map": {
                    "|".join(str(s) for s in k): v for k, v in sorted(
                        self.table.items(), key=lambda kv: str(kv[0])
                    )
                },
                "name": self.name,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TransmissionFunction":
        try:
            doc = json.loads(text)
            inputs = tuple(Alphabet(tuple(a)) for a in doc["inputs"])
            output = Alphabet(tuple(doc["output"]))
            arity = _integer(doc["arity"], "field 'arity'")
            entries = doc["map"].items()
        except KeyError as exc:
            raise InputError(f"transmission function missing field {exc}") from None
        except (json.JSONDecodeError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed transmission function: {exc}") from None
        lookup: dict[str, Symbol] = {}
        for alph in inputs:
            for s in alph:
                lookup[str(s)] = s
        table = {}
        for key, out in entries:
            parts = key.split("|")
            table[tuple(lookup.get(p, p) for p in parts)] = out
        return cls(arity, inputs, output, table, doc.get("name", ""))


def identity_map(alphabet: Alphabet) -> TransmissionFunction:
    return TransmissionFunction(
        0, (alphabet,), alphabet, {(s,): s for s in alphabet}, name="identity"
    )


def _binary_gate(table: Mapping[tuple[int, int], int], name: str) -> TransmissionFunction:
    return TransmissionFunction(2, (BINARY, BINARY), BINARY, table, name=name)


def or_gate() -> TransmissionFunction:
    return _binary_gate({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, "or")


def and_gate() -> TransmissionFunction:
    return _binary_gate({(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}, "and")


def xor_gate() -> TransmissionFunction:
    return _binary_gate({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, "xor")


def forward_first_gate() -> TransmissionFunction:
    return _binary_gate({(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}, "forward")


@dataclass(frozen=True)
class QuantizerFamily:
    """Finite menu of candidate leaf maps."""

    leaf: tuple[TransmissionFunction, ...]

    def __post_init__(self) -> None:
        if not self.leaf:
            raise InvalidParams("leaf family must be non-empty")
        for gamma in self.leaf:
            if gamma.arity != 0:
                raise InvalidParams("leaf family entries must have arity 0")


def all_binary_leaf_family(alphabet: Alphabet) -> QuantizerFamily:
    """Every deterministic map from ``alphabet`` to a binary message."""
    return QuantizerFamily(leaf=enumerate_quantizers(alphabet, BINARY))


def _push(index: Sequence[int], masses: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Both hypotheses' masses summed onto output indices in input order,
    as a (2, k) array; outputs that receive nothing keep mass 0."""
    q = np.stack([np.bincount(index, weights=w, minlength=k) for w in masses])
    # summed masses may overshoot 1 by an ulp, which the pair constructor rejects
    return np.minimum(q, 1.0)


def _bins(pair: DistributionPair, tf: TransmissionFunction) -> list[int]:
    """Output index of each pair symbol under a checked arity-0 map."""
    if tf.arity != 0:
        raise InvalidParams("push-forward of an observation needs an arity-0 map")
    if tf.input_alphabets[0].symbols != pair.alphabet.symbols:
        raise InputError("map input alphabet does not match the pair alphabet")
    # the check above makes every (s,) a key of the total table
    index, table = tf.output_alphabet.index, tf.table
    return [index(table[(s,)]) for s in pair.alphabet]


def _pushforward(pair: DistributionPair, tf: TransmissionFunction) -> np.ndarray:
    """Output masses over the full output alphabet (dead symbols kept)."""
    return _push(_bins(pair, tf), (pair.p0, pair.p1), len(tf.output_alphabet))


def _live_pair(output: Alphabet, q: np.ndarray) -> DistributionPair:
    """The pair over the output symbols live under either hypothesis; the
    pair constructor rejects a symbol dead under exactly one."""
    keep = np.any(q > 0.0, axis=0)
    symbols = tuple(itertools.compress(output, keep))
    return DistributionPair(Alphabet(symbols), q[0, keep], q[1, keep])


def induced_pair(pair: DistributionPair, tf: TransmissionFunction) -> DistributionPair:
    """Distribution pair of the transmitted message for an arity-0 map.

    Output symbols dead under both hypotheses are dropped.  ``pair`` keeps
    its last build, so the same map object gets the same message pair.
    """
    bins = _bins(pair, tf)  # checked before any memo hit
    last = pair._induced
    if last is None or last[0] is not tf:
        q = _push(bins, (pair.p0, pair.p1), len(tf.output_alphabet))
        last = (tf, _live_pair(tf.output_alphabet, q))
        object.__setattr__(pair, "_induced", last)
    return last[1]


def _margins(pair: DistributionPair, leaf_maps: Sequence) -> dict[int, np.ndarray]:
    """Pushed masses of each distinct leaf map, by id: the caller holds the maps."""
    distinct = {id(g): g for g in leaf_maps}
    return {key: _pushforward(pair, g) for key, g in distinct.items()}


def _fuse(leaf_maps: Sequence, margins: dict, gate: TransmissionFunction) -> DistributionPair:
    """Law of ``gate`` applied to independent messages of these leaf maps."""
    # joint masses of the quantized tuples, in itertools.product order
    joint = [
        functools.reduce(np.multiply.outer, [margins[id(g)][hyp] for g in leaf_maps]).ravel()
        for hyp in (0, 1)
    ]
    inputs = itertools.product(*(g.output_alphabet for g in leaf_maps))
    index = [gate.output_alphabet.index(gate(*x)) for x in inputs]
    return _live_pair(gate.output_alphabet, _push(index, joint, len(gate.output_alphabet)))


def fused_pair(
    pair: DistributionPair,
    leaf_maps: Sequence[TransmissionFunction],
    gate: TransmissionFunction,
) -> DistributionPair:
    """Law of ``gate`` applied to independently quantized observations."""
    k = len(leaf_maps)
    if gate.arity != k:
        raise InvalidParams(f"gate arity {gate.arity} != {k} quantized inputs")
    return _fuse(leaf_maps, _margins(pair, leaf_maps), gate)


def enumerate_quantizers(
    inputs: Alphabet | Sequence[Alphabet],
    output: Alphabet,
) -> tuple[TransmissionFunction, ...]:
    """All total deterministic maps from the (product) input to ``output``,
    relabelings of the output symbols included: a relabeling changes the
    message alphabet seen upstream."""
    if isinstance(inputs, Alphabet):
        alphabets: tuple[Alphabet, ...] = (inputs,)
        arity = 0
    else:
        alphabets = tuple(inputs)
        if not alphabets:
            raise InvalidParams("need at least one input alphabet")
        arity = len(alphabets)
    domain = list(itertools.product(*[a.symbols for a in alphabets]))
    total = len(output) ** len(domain)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{total} maps exceed the cap of {ENUMERATION_CAP}; restrict the alphabets"
        )
    out: list[TransmissionFunction] = []
    for assignment in itertools.product(output.symbols, repeat=len(domain)):
        table = dict(zip(domain, assignment))
        out.append(TransmissionFunction(arity, alphabets, output, table))
    return tuple(out)


def parallel_exponent(
    pair: DistributionPair, leaf_family: QuantizerFamily | Sequence[TransmissionFunction]
) -> tuple[float, TransmissionFunction]:
    """Optimal per-leaf error exponent for a star network.

    Equals minus the largest null-to-alternative divergence achievable by a
    single leaf map from the family.  Ties keep the earliest map.
    """
    gammas = leaf_family.leaf if isinstance(leaf_family, QuantizerFamily) else tuple(leaf_family)
    if not gammas:
        raise InvalidParams("leaf family must be non-empty")
    # one push-forward for the whole family: each map bins into its own
    # slice of the outputs, and bincount still sums every bin in input order
    m = len(gammas)
    bins = np.array([_bins(pair, gamma) for gamma in gammas])
    widths = np.array([len(gamma.output_alphabet) for gamma in gammas])
    ends = np.cumsum(widths)
    tiled = np.array((pair.p0, pair.p1))[:, None].repeat(m, 1).reshape(2, -1)
    q0, q1 = _push((bins + (ends - widths)[:, None]).ravel(), tiled, int(ends[-1]))
    # kl_divergence's sum over each map's live outputs; push-forwards are valid
    live = q0 > 0.0
    q0, q1 = q0[live], q1[live]
    terms = q0 * (np.log(q0) - np.log(q1))
    n_live = np.bincount(np.repeat(np.arange(m), widths)[live], minlength=m)
    starts = np.cumsum(n_live) - n_live
    d = np.empty(m)
    # summing rows of equal live count keeps np.sum's association; padding
    # dead outputs with zeros would change it from eight terms on
    for n in np.flatnonzero(np.bincount(n_live)).tolist():
        rows = np.flatnonzero(n_live == n)
        d[rows] = terms[starts[rows, None] + np.arange(n)].sum(axis=1)
    best = int(np.argmax(d))  # the earliest of tied maps
    if not d[best] > 0.0:
        raise DegenerateFamily("every map in the family yields zero divergence")
    return -float(d[best]), gammas[best]


@dataclass(frozen=True)
class FusionLossReport:
    """Best fused divergence rate over k observations, vs the per-leaf optimum."""

    k: int
    constant: float
    best_gate: TransmissionFunction
    best_leaf_maps: tuple[TransmissionFunction, ...]
    parallel: float
    dominated: bool  # parallel exponent strictly below the fused constant


def fusion_loss_constant(
    pair: DistributionPair,
    leaf_family: QuantizerFamily | Sequence[TransmissionFunction],
    relay_family: Sequence[TransmissionFunction],
    k: int,
) -> FusionLossReport:
    """Infimum over gate-and-leaf-map choices of the per-observation rate
    at which the null law drifts from the alternative after fusing k
    quantized observations into one message.

    Uninformative combinations contribute exactly zero.  The report also
    says whether the parallel per-leaf exponent is strictly better (lower)
    than this constant, which is the condition under which bounded-degree
    fusion provably loses exponent.
    """
    gammas = leaf_family.leaf if isinstance(leaf_family, QuantizerFamily) else tuple(leaf_family)
    if k < 1:
        raise InvalidParams("k must be >= 1")
    gates = [g for g in relay_family if g.arity == k]
    if not gates:
        raise InvalidParams(f"relay family has no gates of arity {k}")
    combos = len(gates) * len(gammas) ** k
    if combos > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"{combos} fused configurations exceed cap {ENUMERATION_CAP}")
    margins = _margins(pair, gammas)
    best = math.inf
    best_xi: tuple[TransmissionFunction, tuple[TransmissionFunction, ...]] | None = None
    for gate in gates:
        for leafs in itertools.product(gammas, repeat=k):
            fused = _fuse(leafs, margins, gate)
            value = -kl_divergence(fused, Direction.ZERO_ONE) / k
            if value < best:
                best = value
                best_xi = (gate, leafs)
    assert best_xi is not None
    g_parallel, _ = parallel_exponent(pair, gammas)
    return FusionLossReport(
        k=k,
        constant=best,
        best_gate=best_xi[0],
        best_leaf_maps=best_xi[1],
        parallel=g_parallel,
        dominated=g_parallel < best,
    )
