"""Task-encoders, decoding lists, derandomization, and the guess/list conversions.

A task-encoder maps each source symbol (given a context) to a short
description; its decoder outputs the list of all symbols with positive
posterior given the description.  List membership is support-defined, so all
the machinery here works on exact zeros: a tiny positive posterior still puts
a symbol in the list.

The constructions that turn ranks into descriptions (`offset_refinement`) and
lists into a guessing order (`shortest_lists_first`) are written once, here.
The rate-distortion versions in `distortion` are these same constructions
applied to a success function's ranks, the position of the first guess
within Delta.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .bounds import bunte_bounds, fact1_census, list_room  # the first two are re-exported
from .prob import AlphabetMismatchError, DomainError, JointPmf, record
from .guessing import GuessingFunction, power_moment, rank_row


@record
class DetTaskEncoder:
    """Deterministic description map: (x, ctx) -> z."""

    x_alphabet: tuple
    context_alphabet: tuple
    z_alphabet: tuple | range  # a range is never written out: a descriptor alphabet may have 2^48 values
    mapping: dict  # (x, ctx) -> z, total

    def __post_init__(self):
        for c in self.context_alphabet:
            for x in self.x_alphabet:
                if (x, c) not in self.mapping:
                    raise DomainError(f"encoder not total: missing ({x!r}, {c!r})")

    def emit_set(self, x, ctx) -> tuple:
        return (self.mapping[(x, ctx)],)

    def prob(self, z, x, ctx) -> int:
        return 1 if self.mapping[(x, ctx)] == z else 0

    def to_json(self) -> str:
        return json.dumps(
            {repr(c): {repr(x): self.mapping[(x, c)] for x in self.x_alphabet} for c in self.context_alphabet}
        )


@record
class StochTaskEncoder:
    """Stochastic description law: rows[(x, ctx)] = dict z -> prob."""

    x_alphabet: tuple
    context_alphabet: tuple
    z_alphabet: tuple
    rows: dict  # (x, ctx) -> {z: prob}

    def emit_set(self, x, ctx) -> tuple:
        return tuple(z for z, p in self.rows[(x, ctx)].items() if p > 0)

    def prob(self, z, x, ctx):
        return self.rows[(x, ctx)].get(z, 0)


@record
class DecodingListTable:
    """lists[(ctx, z)] = tuple of symbols with positive posterior."""

    lists: dict

    def list_for(self, ctx, z) -> tuple:
        return self.lists.get((ctx, z), ())

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["ctx", "z", "members"])
        for (ctx, z) in sorted(self.lists, key=repr):
            w.writerow([repr(ctx), repr(z), *map(repr, self.lists[(ctx, z)])])
        return buf.getvalue()


def decoding_lists(enc, joint: JointPmf) -> DecodingListTable:
    """L^ctx_z = {x : P(x|ctx) > 0 and the encoder can emit z at (x, ctx)}."""
    if enc.x_alphabet != joint.x_alphabet or enc.context_alphabet != joint.y_alphabet:
        raise AlphabetMismatchError("encoder alphabets do not match the joint")
    lists: dict = {}
    for j, c in enumerate(joint.y_alphabet):
        for i, x in enumerate(joint.x_alphabet):
            if joint.table[i][j] > 0:
                for z in enc.emit_set(x, c):
                    lists.setdefault((c, z), []).append(x)
    return DecodingListTable({k: tuple(v) for k, v in lists.items()})


def list_moment(lists: DecodingListTable, joint: JointPmf, rho: float, enc) -> float:
    """E[|L^ctx_Z|^rho] under the encoder's description law."""
    masses, sizes, cols = [], [], joint.columns  # context-major; a list can be empty
    for j, c in enumerate(joint.y_alphabet):
        for i, x in enumerate(joint.x_alphabet):
            if (p := cols[j][i]) > 0:
                for z in enc.emit_set(x, c):
                    masses.append(p * float(enc.prob(z, x, c)))
                    sizes.append(len(lists.list_for(c, z)))
    return power_moment(masses, sizes, rho)


def derandomize(enc: StochTaskEncoder, joint: JointPmf) -> DetTaskEncoder:
    """Pick, per positive-mass (x, ctx), the shortest list containing x.

    Ties go to the smallest z index.  The deterministic encoder's list moment
    never exceeds the stochastic one.
    """
    src_lists = decoding_lists(enc, joint)
    zi = {z: k for k, z in enumerate(enc.z_alphabet)}
    mapping: dict = {}
    for j, c in enumerate(joint.y_alphabet):
        for i, x in enumerate(joint.x_alphabet):
            if joint.table[i][j] > 0:
                candidates = [z for z in enc.emit_set(x, c)]
                best = min(candidates, key=lambda z: (len(src_lists.list_for(c, z)), zi[z]))
                mapping[(x, c)] = best
            else:
                mapping[(x, c)] = enc.z_alphabet[0]
    return DetTaskEncoder(enc.x_alphabet, enc.context_alphabet, enc.z_alphabet, mapping)


def s_alphabet_size(nx: int, omega: int) -> int:
    """Size of the refinement part of an (offset, refinement) description."""
    return 1 + math.floor(math.log2(math.ceil(nx / omega)))


def descriptor_map(joint: JointPmf, size: int, version: str):
    """The scheme builders' descriptor z in {0..size-1} of each cell of `joint.support`: an int64
    array, a map of the cell's optimal rank tabulated on ranks 1..|X|, so a size of any magnitude fits.

    Guessing version: remainder of the optimal rank, which attains the
    ceil-moment equality.  List version: the offset/refinement construction
    with the largest feasible offset cardinality; it needs size > log2|X| + 2,
    the room of the list version's direct bound, and then omega = 1 fits.
    """
    import numpy as np

    nx = len(joint.x_alphabet)
    if version == "list" and list_room(size, nx):
        omega = max(w for w in range(1, nx + 1) if w * s_alphabet_size(nx, w) <= size)
        describe = offset_refinement(nx, omega, size)
    elif version == "guessing" and size >= 1:
        describe = lambda rank: (rank - 1) % size  # noqa: E731
    else:
        raise DomainError(f"no {version!r} descriptor of {size} values (the list version needs more than log2|X| + 2)")
    return np.array([describe(rank) for rank in range(1, nx + 1)], dtype=np.int64)[joint.support[3] - 1]


def offset_refinement(n: int, omega: int, z_count: int):
    """The two-step description of a rank among n candidates, as a map rank -> z.

    Step 1 takes the rank's remainder O = (rank-1) mod omega; step 2 adds
    S = floor(log2 ceil(rank/omega)).  Pairs are flattened to integers
    z = O * |S| + S.  Requires 1 <= omega <= n and
    z_count >= omega * |S| = omega * (1 + floor(log2 ceil(n/omega))).
    """
    if not 1 <= omega <= n:
        raise DomainError(f"omega must be in 1..{n}, got {omega}")
    ns = s_alphabet_size(n, omega)
    if z_count < omega * ns:
        raise DomainError(f"descriptor capacity violated: z_count {z_count} < omega*|S| = {omega * ns}")
    return lambda rank: (rank - 1) % omega * ns + math.floor(math.log2(math.ceil(rank / omega)))


def encoder_from_guessing(g: GuessingFunction, omega: int, z_count: int) -> DetTaskEncoder:
    """Two-step descriptor (`offset_refinement`) of each rank of a guessing function."""
    describe = offset_refinement(len(g.x_alphabet), omega, z_count)
    pairs = ((x, c, rank) for c, row in zip(g.context_alphabet, g.ranks) for x, rank in zip(g.x_alphabet, row))
    mapping = {(x, c): describe(rank) for x, c, rank in pairs}
    return DetTaskEncoder(g.x_alphabet, g.context_alphabet, range(z_count), mapping)


def shortest_lists_first(lists: dict, alphabet: tuple, contexts: tuple) -> GuessingFunction:
    """Per context, guess the members of its shortest lists first, then the rest of `alphabet`.

    `lists` maps (ctx, z) to members.  Lists go by (size, repr of z); members
    by alphabet index; repeats are skipped.
    """
    index = {s: i for i, s in enumerate(alphabet)}
    rank_rows = []
    for c in contexts:
        order: dict = {}  # insertion-ordered set
        ctx_lists = [(z, members) for (cc, z), members in lists.items() if cc == c]
        for _, members in sorted(ctx_lists, key=lambda kv: (len(kv[1]), repr(kv[0]))):
            for s in sorted(members, key=index.__getitem__):
                order.setdefault(s)
        for s in alphabet:
            order.setdefault(s)
        rank_rows.append(rank_row([index[s] for s in order]))
    return GuessingFunction(alphabet, contexts, tuple(rank_rows))


def guessing_from_lists(lists: DecodingListTable, joint: JointPmf) -> GuessingFunction:
    """Guess shortest lists first (`shortest_lists_first`).

    Requires the lists to cover every positive-mass symbol per context.  The
    induced moment satisfies E[G^rho] <= |Z|^rho * E[|L|^rho].
    """
    for j, c in enumerate(joint.y_alphabet):
        covered = {x for (cc, _), members in lists.lists.items() if cc == c for x in members}
        for x, p in zip(joint.x_alphabet, joint.y_column(j)):
            if p > 0 and x not in covered:
                raise DomainError(f"lists do not cover positive-mass symbol {x!r} in context {c!r}")
    return shortest_lists_first(lists.lists, joint.x_alphabet, joint.y_alphabet)
