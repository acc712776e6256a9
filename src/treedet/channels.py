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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

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
    DistributionPair,
    Symbol,
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
        if self.arity < 0:
            raise InvalidParams("arity must be >= 0")
        expected_inputs = max(self.arity, 1)
        if len(self.input_alphabets) != expected_inputs:
            raise InvalidParams(f"arity {self.arity} requires {expected_inputs} input alphabet(s)")
        domain = list(itertools.product(*[a.symbols for a in self.input_alphabets]))
        table = dict(self.table)
        inside = set(domain)
        if table.keys() != inside:
            missing = [t for t in domain if t not in table]
            if missing:
                raise InvalidParams(f"table not total: missing {missing[:3]!r}...")
            extra = [t for t in table if t not in inside]
            raise InvalidParams(f"table has entries outside the domain: {extra[:3]!r}")
        try:
            valid = set(self.output_alphabet.symbols).issuperset(table.values())
        except TypeError:  # an unhashable output
            valid = False
        if not valid:
            bad = [y for y in table.values() if y not in self.output_alphabet]
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
        lookup = {str(s): s for alph in inputs for s in alph}
        table = {tuple(lookup.get(p, p) for p in key.split("|")): out for key, out in entries}
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


class _MapTable(Sequence):
    """Every map from one input domain to ``output``: row i of ``rows`` holds
    map i's output indices, and map i is built, checked, on its first read."""

    def __init__(self, arity: int, inputs: tuple[Alphabet, ...], output: Alphabet) -> None:
        self.arity, self.inputs, self.output = arity, inputs, output
        self._domain = list(itertools.product(*[a.symbols for a in inputs]))
        w, n = len(output), len(self._domain)
        # row r spells r in base w, most significant digit first: itertools.product order
        rows = np.arange(w**n)[:, None] // w ** np.arange(n - 1, -1, -1) % w
        self.rows = rows.astype(np.min_scalar_type(w - 1))
        self._maps: dict[int, TransmissionFunction] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int | slice) -> TransmissionFunction | tuple[TransmissionFunction, ...]:
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]  # negatives count from the end; IndexError past it
        if i not in self._maps:
            table = dict(zip(self._domain, (self.output.symbols[j] for j in self.rows[i].tolist())))
            self._maps[i] = TransmissionFunction(self.arity, self.inputs, self.output, table)
        return self._maps[i]


@dataclass(frozen=True)
class QuantizerFamily:
    """Finite menu of candidate leaf maps.  A menu from
    ``enumerate_quantizers`` is checked by its arity, without building a map."""

    leaf: Sequence[TransmissionFunction]

    def __post_init__(self) -> None:
        leaf = self.leaf
        if not leaf:
            raise InvalidParams("leaf family must be non-empty")
        if any([leaf.arity] if isinstance(leaf, _MapTable) else [g.arity for g in leaf]):
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


def _check_leaf(pair: DistributionPair, arity: int, inputs: tuple[Alphabet, ...]) -> None:
    """Refuse maps that cannot push ``pair``'s observation forward."""
    if arity != 0:
        raise InvalidParams("push-forward of an observation needs an arity-0 map")
    if inputs[0].symbols != pair.alphabet.symbols:
        raise InputError("map input alphabet does not match the pair alphabet")


def _bins(pair: DistributionPair, tf: TransmissionFunction) -> list[int]:
    """Output index of each pair symbol under a checked arity-0 map."""
    _check_leaf(pair, tf.arity, tf.input_alphabets)
    # the check above makes every (s,) a key of the total table
    index, table = tf.output_alphabet.index, tf.table
    return [index(table[(s,)]) for s in pair.alphabet]


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
    """Pushed masses of each distinct leaf map, dead outputs kept, by id; the caller holds the maps."""
    distinct, p = {id(g): g for g in leaf_maps}, (pair.p0, pair.p1)
    return {key: _push(_bins(pair, g), p, len(g.output_alphabet)) for key, g in distinct.items()}


def _gate_index(gate: TransmissionFunction, messages: tuple[Alphabet, ...]) -> list[int]:
    """Output index of ``gate`` on each tuple of messages, in itertools.product order."""
    return [gate.output_alphabet.index(gate(*x)) for x in itertools.product(*messages)]


def _fuse(leaf_maps: Sequence, margins: dict, gate: TransmissionFunction, index: list) -> np.ndarray:
    """Both hypotheses' masses of ``gate`` applied to independent messages of
    these leaf maps, ``index`` being the gate's ``_gate_index`` on them."""
    # joint masses of the quantized tuples, in itertools.product order
    joint = [
        functools.reduce(np.multiply.outer, [margins[id(g)][hyp] for g in leaf_maps]).ravel()
        for hyp in (0, 1)
    ]
    return _push(index, joint, len(gate.output_alphabet))


def fused_pair(
    pair: DistributionPair,
    leaf_maps: Sequence[TransmissionFunction],
    gate: TransmissionFunction,
) -> DistributionPair:
    """Law of ``gate`` applied to independently quantized observations."""
    k = len(leaf_maps)
    if gate.arity != k:
        raise InvalidParams(f"gate arity {gate.arity} != {k} quantized inputs")
    index = _gate_index(gate, tuple(g.output_alphabet for g in leaf_maps))
    return _live_pair(gate.output_alphabet, _fuse(leaf_maps, _margins(pair, leaf_maps), gate, index))


def enumerate_quantizers(
    inputs: Alphabet | Sequence[Alphabet],
    output: Alphabet,
) -> Sequence[TransmissionFunction]:
    """All total deterministic maps from the (product) input to ``output``,
    relabelings of the output symbols included: a relabeling changes the
    message alphabet seen upstream.  A read-only sequence in
    ``itertools.product`` order whose maps are built on first read, so
    ``parallel_exponent`` builds only the one it returns."""
    alphabets = (inputs,) if isinstance(inputs, Alphabet) else tuple(inputs)
    if not alphabets:
        raise InvalidParams("need at least one input alphabet")
    arity = 0 if isinstance(inputs, Alphabet) else len(alphabets)
    total = len(output) ** math.prod(len(a) for a in alphabets)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{total} maps exceed the cap of {ENUMERATION_CAP}; restrict the alphabets"
        )
    return _MapTable(arity, alphabets, output)


def parallel_exponent(
    pair: DistributionPair, leaf_family: QuantizerFamily | Sequence[TransmissionFunction]
) -> tuple[float, TransmissionFunction]:
    """Optimal per-leaf error exponent for a star network.

    Equals minus the largest null-to-alternative divergence achievable by a
    single leaf map from the family.  Ties keep the earliest map.
    """
    gammas = leaf_family.leaf if isinstance(leaf_family, QuantizerFamily) else leaf_family
    # one push-forward for the whole family: each map bins into its own
    # slice of the outputs, and bincount still sums every bin in input order
    if isinstance(gammas, _MapTable):  # never empty; the bins are its rows
        _check_leaf(pair, gammas.arity, gammas.inputs)
        bins, widths = gammas.rows, np.full(len(gammas), len(gammas.output))
    else:
        gammas = tuple(gammas)
        if not gammas:
            raise InvalidParams("leaf family must be non-empty")
        bins = np.array([_bins(pair, gamma) for gamma in gammas])
        widths = np.array([len(gamma.output_alphabet) for gamma in gammas])
    m = len(gammas)
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
        indexes: dict[tuple[Alphabet, ...], list[int]] = {}  # by the leaf maps' messages
        for leafs in itertools.product(gammas, repeat=k):
            messages = tuple(g.output_alphabet for g in leafs)
            if messages not in indexes:
                indexes[messages] = _gate_index(gate, messages)
            q = _fuse(leafs, margins, gate, indexes[messages])
            # kl_divergence of the fused pair, read off its live masses
            q0, q1 = q[:, q[0] > 0.0]
            value = -float(np.sum(q0 * (np.log(q0) - np.log(q1)))) / k
            if value < best:
                best = value
                best_xi = (gate, leafs)
    assert best_xi is not None
    g_parallel, _ = parallel_exponent(pair, gammas)
    return FusionLossReport(
        constant=best,
        best_gate=best_xi[0],
        best_leaf_maps=best_xi[1],
        parallel=g_parallel,
        dominated=g_parallel < best,
    )
