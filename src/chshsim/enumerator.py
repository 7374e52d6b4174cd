"""Exact computations by exhaustive enumeration.

Averages deterministic count-driven strategies over every possible
setting sequence (4^n of them, all equally likely) to get exact
expectations and distributions, without playing a single sequence: a
count-driven strategy's play depends only on the pair counts so far.
The expectations are closed-form sums over count states (k, c), the
k completed rounds and their pair counts c (:func:`exact_by_counts`).
The k!/(c0! c1! c2! c3!) prefixes that reach c all play one assignment,
which meets pair j's target or not (its flag h_j = ``hits[j]``, 1 or
0).  The settings are uniform whatever is played, so the completions of
a round on pair j from c are the same for every strategy: 4^(n-k-1) of
them, over which 1/C_j(N) sums to a weight w(n-k-1, c_j+1, z_j)
(:func:`_pair_weight`) on those that leave X_N defined, z_j being the
other pairs still unmet.
So the scoring rounds sum to sum_(k,c) paths(c) sum_j h_j 4^(n-k-1)
over all sequences, and X_N over the defined ones to
sum_(k,c) paths(c) sum_j h_j w(n-k-1, c_j+1, z_j).  The joint law of
(Y_N, X_N) is a forward sweep over (pair counts, per-pair scores)
states (:func:`exact_distribution`).  Any
other sequential strategy is refused with ``TypeError``; a collective
one is played once per sequence (:func:`collective_scores`).  Also
evaluates the rigged-101st-round model in closed form and checks
no-signaling exhaustively: a sequential strategy by a depth-first walk
of its setting-prefix tree that plays each round of each prefix once,
from a snapshot of the state the prefix left, and walks below only one
prefix per (depth, key its parent names), so a count-driven strategy is
checked over its count vectors; a collective strategy or a callable by
a scan over all 4^n runs.  Everything returns exact
rationals.  Each entry point predicts its work from n and the subject's
type before it starts and refuses work above one budget
(:data:`_WORK_BUDGET`); Monte Carlo (:mod:`chshsim.montecarlo`) takes
over beyond it.  A seeded check draws a stochastic subject's tape from
:class:`~chshsim.stream.Stream`, numpy's seeded draws in plain Python,
so only the collective score tables (:func:`collective_scores`) load
numpy here.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core import (
    ALL_PAIRS,
    InvariantViolation,
    MemoryClass,
    Round,
    SettingPair,
    Side,
    Transcript,
    _check_pair,
    views,
)
from .stats import chsh_value, round_score, x_from_counts, x_statistic
from .strategies import (
    CollectiveStrategy,
    CountDriven,
    MODEL_101_TRIGGER_COUNTS,
    DeterministicAssignment,
    Model101,
    SequentialStrategy,
    StochasticLHV,
    all_assignments,
)
from .stream import Stream

if TYPE_CHECKING:
    import numpy as np

#: The most work an exact computation may do, in its engine's units:
#: states summed, sequences played or rounds walked.  It is the
#: (4^11 - 4)/3 rounds of a walk without keys at n = 10.
_WORK_BUDGET = (4 ** 11 - 4) // 3


class EnumerationCapError(ValueError):
    """An exact computation's predicted work exceeds :data:`_WORK_BUDGET`."""


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _admit(n: int, work: int, unit: str) -> None:
    """Refuse a computation at n whose predicted ``work``, counted in ``unit``, is over the budget."""
    if work > _WORK_BUDGET:
        raise EnumerationCapError(f"n={n} needs {work:,} {unit}, over the work budget of {_WORK_BUDGET:,}")


def _check_enumerable(strategy, n: int) -> None:
    """Refuse n < 1 and a stochastic strategy."""
    _check_n(n)
    if strategy.stochastic:
        raise ValueError("exact enumeration requires a deterministic strategy")


def _as_pairs(settings) -> tuple[SettingPair, ...]:
    return tuple(_check_pair(s) for s in settings)


def _memory_class(strategy) -> MemoryClass:
    """Refuse anything but a sequential strategy with a known memory class; return the class."""
    if isinstance(strategy, CollectiveStrategy):
        raise TypeError("collective strategies are played out via collective_playout")
    if not isinstance(strategy, SequentialStrategy):
        raise TypeError(f"not a sequential strategy: {strategy!r}")
    memory_class = strategy.memory_class
    if not isinstance(memory_class, MemoryClass):
        raise InvariantViolation(f"strategy declares unknown memory class {memory_class!r}")
    return memory_class


def _play_round(strategy, pair: SettingPair, view_a, view_b) -> tuple[int, int]:
    """One round of the protocol: ``begin_round``, Alice's answer, then Bob's.

    Each responder sees its own current setting and its view; the two
    outcomes are checked to be +1 or -1 and returned as given.
    """
    strategy.begin_round()
    a = strategy.respond_alice(pair.alice, view_a)
    b = strategy.respond_bob(pair.bob, view_b)
    if (a != 1 and a != -1) or (b != 1 and b != -1):
        raise InvariantViolation(f"strategy produced non-outcome ({a!r}, {b!r})")
    return a, b


def playout(strategy: SequentialStrategy, settings, rng=None) -> Transcript:
    """Drive a sequential strategy through the given setting sequence.

    Each round both responders see their own current setting and a
    memory view of the completed rounds, cut to the strategy's declared
    memory class by :func:`~chshsim.core.views`.  The strategy, its
    memory class and the settings are checked on every call; each round
    is played by the same one-round body as :func:`no_signaling_check`'s
    walk.  Collective strategies have their own path,
    :func:`collective_playout`.
    """
    memory_class = _memory_class(strategy)
    pairs = _as_pairs(settings)
    strategy.begin_playout(len(pairs), rng)
    rounds: list[Round] = []
    for k, pair in enumerate(pairs):
        view_a, view_b = views(memory_class, rounds, k)
        a, b = _play_round(strategy, pair, view_a, view_b)
        rounds.append(Round(k + 1, pair, int(a), int(b)))
    transcript = Transcript.__new__(Transcript)
    transcript.rounds = tuple(rounds)
    return transcript


def collective_playout(strategy: CollectiveStrategy, settings) -> Transcript:
    """Drive a collective strategy: each wing answers its whole run at once."""
    if not isinstance(strategy, CollectiveStrategy):
        raise TypeError(f"not a collective strategy: {strategy!r}")
    pairs = _as_pairs(settings)
    a_outs = strategy.respond_alice(tuple(p.alice for p in pairs))
    b_outs = strategy.respond_bob(tuple(p.bob for p in pairs))
    if len(a_outs) != len(pairs) or len(b_outs) != len(pairs):
        raise InvariantViolation("collective strategy returned wrong-length outcome list")
    rounds = []
    for k, (pair, a, b) in enumerate(zip(pairs, a_outs, b_outs)):
        if (a != 1 and a != -1) or (b != 1 and b != -1):
            raise InvariantViolation(f"strategy produced non-outcome ({a!r}, {b!r})")
        rounds.append(Round(k + 1, pair, int(a), int(b)))
    return Transcript(rounds)


class ExactResult(NamedTuple):
    """Exact expectations over all equally likely setting sequences."""

    n: int
    e_y: Fraction
    e_x_conditional: Fraction | None
    p_undefined: Fraction
    distribution: tuple[tuple[Fraction, Fraction | None, Fraction], ...] | None = None


def exact_expectations(strategy: CountDriven, n: int, collect_distribution: bool = False) -> ExactResult:
    """Exact expectations over all 4^n setting sequences for a count-driven strategy.

    Returns exact E(Y_N), E(X_N | X_N defined), P(X_N undefined), and
    optionally the full joint distribution of (Y_N, X_N) as a sorted
    tuple of (y, x, probability) entries with x None when undefined.
    The expectations are closed-form sums over count states
    (:func:`exact_by_counts`), the distribution over (pair counts,
    per-pair scores) states (:func:`exact_distribution`); no sequence is
    played out.  Raises ``ValueError`` for n < 1 or a stochastic
    strategy, then ``TypeError`` for a strategy that is not
    :class:`CountDriven`, and then :class:`EnumerationCapError` when the
    engine's states are over the budget: C(n+3, 4) count states (n <= 74)
    or, with the distribution, at most C(n+8, 8) (counts, scores) states
    (n <= 17).
    """
    _check_enumerable(strategy, n)
    if not isinstance(strategy, CountDriven):
        raise TypeError(f"exact enumeration requires a count-driven strategy, got {strategy!r}")
    if collect_distribution:
        _admit(n, math.comb(n + 8, 8), "(counts, scores) states")
        return exact_distribution(strategy, n)
    _admit(n, math.comb(n + 3, 4), "count states")
    return exact_by_counts(strategy, n)


def _exact_result(n, score_sum, defined, x_sum, distribution=None) -> ExactResult:
    """Expectations from totals over all 4^n sequences: scoring rounds,
    sequences with X_N defined, and the sum of X_N over those."""
    total_sequences = 4 ** n
    return ExactResult(
        n=n,
        e_y=Fraction(4 * score_sum, n * total_sequences),
        e_x_conditional=(x_sum / defined) if defined else None,
        p_undefined=Fraction(total_sequences - defined, total_sequences),
        distribution=distribution,
    )


def exact_distribution(strategy: CountDriven, n: int) -> ExactResult:
    """:func:`exact_expectations` with the joint law of (Y_N, X_N).

    A forward sweep whose state is (pair counts, per-pair scores) and
    whose value is the number of sequences reaching it; the assignment
    played from a state depends only on its counts, and which pairs it
    scores on is read from its 0/1 flags (``hits``).  A final state fixes
    Y_N and X_N, so each adds its sequences to one cell, keyed by its
    integer score and its per-pair (score, count) pairs in sorted order:
    X_N is symmetric in the pairs, so states that differ only in the
    order of their pairs share a cell.  Each cell's X_N is then built once as a
    ``Fraction``, and cells of equal (score, X_N) merge into one
    (Y_N, X_N) entry.
    """
    zero = (0, 0, 0, 0)
    layer = {(zero, zero): 1}
    for k in range(n):
        following: defaultdict = defaultdict(int)
        for (counts, scores), paths in layer.items():
            c0, c1, c2, c3 = counts
            s0, s1, s2, s3 = scores
            h0, h1, h2, h3 = strategy.assignment(counts, k).hits
            following[(c0 + 1, c1, c2, c3), (s0 + h0, s1, s2, s3)] += paths
            following[(c0, c1 + 1, c2, c3), (s0, s1 + h1, s2, s3)] += paths
            following[(c0, c1, c2 + 1, c3), (s0, s1, s2 + h2, s3)] += paths
            following[(c0, c1, c2, c3 + 1), (s0, s1, s2, s3 + h3)] += paths
        layer = following

    score_sum = 0
    defined = 0
    cells: Counter = Counter()  # (score, sorted (score, count) pairs or None if undefined) -> sequences
    for (counts, scores), paths in layer.items():
        score = sum(scores)
        score_sum += paths * score
        if 0 in counts:
            cells[score, None] += paths
        else:
            defined += paths
            cells[score, tuple(sorted(zip(scores, counts)))] += paths
    by_value: Counter = Counter()  # (score, X_N) -> sequences
    for (score, pairs), paths in cells.items():
        x = None if pairs is None else x_from_counts(*zip(*pairs))
        by_value[score, x] += paths
    x_sum = sum((x * paths for (_, x), paths in by_value.items() if x is not None), Fraction(0))
    total_sequences = 4 ** n
    distribution = tuple(
        (Fraction(4 * score, n), x, Fraction(paths, total_sequences))
        for (score, x), paths in sorted(
            by_value.items(),
            key=lambda cell: (cell[0][0], cell[0][1] is not None, cell[0][1] or 0),
        )
    )
    return _exact_result(n, score_sum, defined, x_sum, distribution)


def _pair_weight(r: int, m: int, z: int, scale: int) -> int:
    """``scale`` times w(r, m, z): 1/C_j(N) summed over the defined completions of a round on pair j.

    The round brings pair j's count to m, r rounds remain, and z of the
    other three pairs have not occurred yet.  A completion with t more
    rounds on pair j ends with C_j(N) = m + t, and it leaves X_N
    defined when its other r - t rounds meet each of the z missing
    pairs.  There are C(r, t) places for the t rounds and, by
    inclusion-exclusion over the missing pairs left out,
    g_z(s) = sum_u (-1)^u C(z, u) (3 - u)^s
           = 3^s - z 2^s + C(z, 2) - C(z, 3) 0^s
    fillings of the s = r - t others, so
    w(r, m, z) = sum_t C(r, t) g_z(r - t) / (m + t).
    Only the settings enter, and they are uniform whatever a strategy
    plays, so the weight depends on the counts alone.  ``scale`` must be
    a multiple of every m + t with t <= r, lcm(1..m + r) for one, and
    the result is then an exact integer.
    """
    total = 0
    ways = 1  # C(r, t), from t = r down
    three = two = 1  # 3^s and 2^s, s = r - t
    pairs_of_missing = z * (z - 1) // 2
    for t in range(r, -1, -1):
        free = three - z * two + pairs_of_missing
        if z == 3 and t == r:
            free -= 1  # 0^s at s = 0
        total += ways * free * (scale // (m + t))
        ways = ways * t // (r - t + 1)
        three *= 3
        two *= 2
    return total


def exact_by_counts(strategy: CountDriven, n: int) -> ExactResult:
    """:func:`exact_expectations` by closed-form sums over count states.

    A count-driven strategy plays the same assignment on all
    paths(c) = k!/(c0! c1! c2! c3!) setting prefixes that reach a count
    vector c of k rounds.  The next pair is uniform whatever the
    assignment, and so is every later one, so what a round on pair j
    from c adds over the completions depends on the counts alone: a
    scoring round on each of its 4^(n-k-1) completions, and 1/C_j(N) on
    each one that leaves X_N defined, w(n-k-1, c_j+1, z_j) in all
    (:func:`_pair_weight`), where z_j of the other pairs have count 0.
    With h_j = 1 where the assignment at c meets pair j's target
    (its ``hits``), summed over all 4^n sequences:

        scoring rounds   = sum_(k,c) paths(c) sum_j h_j 4^(n-k-1)
        X_N · 1_defined = sum_(k,c) paths(c) sum_j h_j w(n-k-1, c_j+1, z_j)

    and X_N is defined on the 4^n - 4·3^n + 6·2^n - 4 sequences that
    meet all four pairs.  Each of the C(n+3, 4) states (k, c) with k < n
    asks for one assignment and does constant work; no layer of states
    is kept.  The X_N sum is kept in integers scaled by lcm(1..n), which
    every C_j(N) <= n divides, and becomes one ``Fraction`` at the end.
    """
    scale = math.lcm(*range(1, n + 1))
    factorial = [math.factorial(i) for i in range(n)]
    score_sum = 0
    x_scaled = 0
    for k in range(n):
        rest = n - k - 1
        # weight[zeros][c]: scale·w for a pair met c times at a state
        # with ``zeros`` counts of 0, one of them the pair's own if c = 0.
        # The other three pairs share k - c rounds, so 1 to 3 of them
        # are met if c < k and none if c = k; no state has the rest.
        weight = [[0] * (k + 1) for _ in range(5)]
        for c in range(k + 1):
            for met in range(1, min(3, k - c) + 1) if c < k else (0,):
                weight[3 - met + (c == 0)][c] = _pair_weight(rest, c + 1, 3 - met, scale)
        hit_paths = 0
        for c0 in range(k + 1):
            for c1 in range(k + 1 - c0):
                for c2 in range(k + 1 - c0 - c1):
                    c3 = k - c0 - c1 - c2
                    counts = (c0, c1, c2, c3)
                    h0, h1, h2, h3 = strategy.assignment(counts, k).hits
                    paths = factorial[k] // (factorial[c0] * factorial[c1] * factorial[c2] * factorial[c3])
                    w = weight[counts.count(0)]
                    hit_paths += paths * (h0 + h1 + h2 + h3)
                    x_scaled += paths * (h0 * w[c0] + h1 * w[c1] + h2 * w[c2] + h3 * w[c3])
        score_sum += hit_paths * 4 ** rest
    defined = 4 ** n - 4 * 3 ** n + 6 * 2 ** n - 4
    return _exact_result(n, score_sum, defined, Fraction(x_scaled, scale))


def collective_scores(strategy: CollectiveStrategy, n: int) -> np.ndarray:
    """A deterministic collective strategy's round scores on every setting sequence.

    Row i of the (4^n, n) bool array is the strategy's own playout of
    sequence i of ``itertools.product(ALL_PAIRS, repeat=n)``: the one
    whose pair indices, read as a base-4 number with round 1 the most
    significant digit, give i.  Refused like :func:`exact_expectations`,
    and over the budget for its 4^n playouts (n > 10).
    """
    import numpy as np

    _check_enumerable(strategy, n)
    _admit(n, 4 ** n, "sequences")
    table = np.empty((4 ** n, n), dtype=bool)
    for i, pairs in enumerate(itertools.product(ALL_PAIRS, repeat=n)):
        table[i] = [round_score(r) for r in collective_playout(strategy, pairs).rounds]
    return table


class CollectiveResult(NamedTuple):
    """Sequences per round-score pattern (0/1 tuples, in product order), the
    chance that every round scores, and (3/4)^n, its most for independent
    rounds that each score with probability at most 3/4."""

    n: int
    pattern_counts: dict[tuple[int, ...], int]
    p_all: Fraction
    independent_ceiling: Fraction


def exact_collective(strategy: CollectiveStrategy, n: int) -> CollectiveResult:
    """Count the score patterns of :func:`collective_scores` over all 4^n sequences."""
    import numpy as np

    patterns = collective_scores(strategy, n) @ (1 << np.arange(n - 1, -1, -1))
    counts = np.bincount(patterns, minlength=2 ** n).tolist()
    return CollectiveResult(
        n=n,
        pattern_counts=dict(zip(itertools.product((0, 1), repeat=n), counts)),
        p_all=Fraction(counts[-1], 4 ** n),
        independent_ceiling=Fraction(3, 4) ** n,
    )


def chsh_exhaustive_max() -> tuple[Fraction, tuple[DeterministicAssignment, ...]]:
    """Maximum per-round CHSH value over the 16 deterministic assignments."""
    values = [
        (chsh_value(StochasticLHV.point_mass(a)), a) for a in all_assignments()
    ]
    best = max(v for v, _ in values)
    return best, tuple(a for v, a in values if v == best)


class Model101Exact(NamedTuple):
    """Exact analysis of the rigged-101st-round model."""

    p_trigger: Fraction
    log10_p_trigger: float
    e_conditional: Fraction
    e_x_excess: Fraction


def model101_exact() -> Model101Exact:
    """Exact trigger probability and conditional ratio-statistic gain.

    A trigger history (pair counts ``MODEL_101_TRIGGER_COUNTS``) is
    played out explicitly with each possible next setting pair; the
    conditional expectation averages the four equally likely branches.
    The trigger probability is the multinomial of the counts over 4^k
    histories of k rounds.
    """
    trigger_settings = [
        pair for pair, count in zip(ALL_PAIRS, MODEL_101_TRIGGER_COUNTS) for _ in range(count)
    ]
    branch_values = []
    for final_pair in ALL_PAIRS:
        transcript = playout(Model101(), trigger_settings + [final_pair])
        x = x_statistic(transcript)
        if x is None:
            raise InvariantViolation("trigger playout left the ratio statistic undefined")
        branch_values.append(x)
    e_conditional = sum(branch_values, Fraction(0)) / 4

    rounds = len(trigger_settings)
    multinomial = math.factorial(rounds) // math.prod(map(math.factorial, MODEL_101_TRIGGER_COUNTS))
    p_trigger = Fraction(multinomial, 4 ** rounds)
    return Model101Exact(
        p_trigger=p_trigger,
        log10_p_trigger=math.log10(float(p_trigger)),
        e_conditional=e_conditional,
        e_x_excess=p_trigger * (e_conditional - 3),
    )


class SignalingCounterexample(NamedTuple):
    """A concrete violation: toggling one wing's setting moved the other wing."""

    settings: tuple[SettingPair, ...]
    round_index: int
    toggled_side: Side
    watched_side: Side
    before: int
    after: int


class NoSignalingReport(NamedTuple):
    passed: bool
    sequences_checked: int
    counterexample: SignalingCounterexample | None = None


def _mask_function(subject, n: int) -> Callable[[tuple[SettingPair, ...]], int]:
    """Normalize a collective or callable subject to a map from n pairs to
    its table entry, Alice's outcome mask above Bob's.  Both answer whole
    runs as outcome lists, checked and packed by :func:`_outcome_mask`.
    """
    if isinstance(subject, CollectiveStrategy):

        def run(pairs):
            rounds = collective_playout(subject, pairs).rounds
            return tuple(r.a for r in rounds), tuple(r.b for r in rounds)

    elif callable(subject):
        run = subject
    else:
        raise TypeError(f"cannot check {subject!r} for signaling")

    def play(pairs) -> int:
        a, b = run(pairs)
        return _outcome_mask(a, n) << n | _outcome_mask(b, n)

    return play


def _outcome_mask(outcomes, n: int) -> int:
    """One wing's run as an n-bit mask: bit k is set where round k gave -1."""
    if len(outcomes) != n:
        raise InvariantViolation(f"subject returned {len(outcomes)} outcomes for {n} rounds")
    mask = 0
    for k, outcome in enumerate(outcomes):
        if outcome == -1:
            mask |= 1 << k
        elif outcome != 1:
            raise InvariantViolation(f"subject produced non-outcome {outcome!r}")
    return mask


def _violation(settings, sequences_checked: int, round_index: int, toggled_side: Side, before) -> NoSignalingReport:
    """A failed report: toggling ``toggled_side`` moved the other wing from ``before``."""
    before = 1 if before == 1 else -1
    return NoSignalingReport(
        passed=False,
        sequences_checked=sequences_checked,
        counterexample=SignalingCounterexample(
            settings=settings,
            round_index=round_index,
            toggled_side=toggled_side,
            watched_side=Side.ALICE if toggled_side is Side.BOB else Side.BOB,
            before=before,
            after=-before,
        ),
    )


def _signaling_report(n: int, rounds, k: int, q: int, toggled_side: Side, before) -> NoSignalingReport:
    """The report for a round-k violation at child q of the prefix played as ``rounds``.

    Every sequence through that child violates, since round k's outcomes
    depend on the first k + 1 pairs alone; the earliest one in sequence
    order extends it with (A1,B1) pairs.
    """
    settings = (*(r.pair for r in rounds), ALL_PAIRS[q]) + (ALL_PAIRS[0],) * (n - 1 - k)
    index = 0
    for pair in settings:
        index = 4 * index + pair.index
    return _violation(settings, index + 1, k + 1, toggled_side, before)


def _walk_prefixes(strategy, memory_class: MemoryClass, n: int, rng) -> NoSignalingReport:
    """The no-signaling check of a sequential subject, by its setting-prefix tree.

    Round k's outcomes depend only on the first k + 1 pairs, so the walk
    plays each (prefix, pair) node once: (4^(n+1) - 4)/3 rounds for a
    passing subject, not n for each of 4^n sequences.  ``begin_playout``
    runs once, at the root.  At a node of depth k the state the prefix
    left is first caught up (``_catch_up``) on Alice's view, once for
    all four pairs, and names its children's keys (``_child_keys``).
    Round k is then played through the subject's own responders and
    views, cut from the prefix's rounds (:func:`~chshsim.core.views`),
    for each pair: for the first three from snapshots of that
    state, for the last on the state itself, once a comparison needs it.
    The walk is depth-first in product order and compares child q's
    one-wing toggles before descending into q, so violations come in the
    order of the table scan: by sequence, then round, then Bob's toggle
    before Alice's.  A child whose (depth, key) has already been walked
    clean is not descended into, so it is neither visited nor caught up:
    the key promises that its subtree plays as that one did.  A child's
    (depth, key) is recorded only once its whole subtree has come back
    clean, and the walk stops at the first violation, so a skip never
    hides one.  A passing count-driven subject with memory plays
    4·C(n+3, 4) rounds, one node per (depth, count vector), and catches
    up C(k+3, 3) states at depth k; one whose keys are the same at every
    depth, constant-plus or a memoryless mixture, plays 4n.  It holds at
    most four states per depth and one key per walked node.  It recurses
    one frame a depth: n up to about 990 at the default recursion limit.
    """
    strategy.begin_playout(n, rng)
    p11, p12, p21, p22 = ALL_PAIRS
    finished: set = set()  # (depth, key) of the nodes walked clean
    rounds: list[Round] = []  # the prefix being walked

    def visit(state, k: int, pair: SettingPair | None = None, a=None, b=None, key=None) -> NoSignalingReport | None:
        """Walk the depth-k node ``state``, which ``pair`` reached as (a, b), unless its ``key`` is finished.

        Its key is recorded once its subtree comes back clean.  The root
        is reached by no pair and has no key.
        """
        if key is not None:
            key = (k, key)
            if key in finished:
                return None
        if pair is not None:
            rounds.append(Round(k, pair, int(a), int(b)))
        view_a, view_b = views(memory_class, rounds, k)
        state._catch_up(view_a)
        deeper = k + 1 < n
        child_keys = state._child_keys() if deeper else None
        c11, c12, c21, c22 = child_keys or (None,) * 4
        s11, s12, s21 = state._snapshot(), state._snapshot(), state._snapshot()
        a11, b11 = _play_round(s11, p11, view_a, view_b)
        a12, b12 = _play_round(s12, p12, view_a, view_b)
        a21, b21 = _play_round(s21, p21, view_a, view_b)
        # A toggle of Bob's setting watches Alice's outcome, and the
        # reverse; each child's toggles are compared before its subtree.
        if a11 != a12:
            return _signaling_report(n, rounds, k, 0, Side.BOB, a11)
        if b11 != b21:
            return _signaling_report(n, rounds, k, 0, Side.ALICE, b11)
        if deeper and (report := visit(s11, k + 1, p11, a11, b11, c11)) is not None:
            return report
        # Child 3 is first compared by child 1's Alice toggle, and plays
        # on the node's own state, which no snapshot needs now.
        a22, b22 = _play_round(state, p22, view_a, view_b)
        if b12 != b22:
            return _signaling_report(n, rounds, k, 1, Side.ALICE, b12)
        if deeper and (report := visit(s12, k + 1, p12, a12, b12, c12)) is not None:
            return report
        if a21 != a22:
            return _signaling_report(n, rounds, k, 2, Side.BOB, a21)
        if deeper and (report := visit(s21, k + 1, p21, a21, b21, c21)) is not None:
            return report
        if deeper and (report := visit(state, k + 1, p22, a22, b22, c22)) is not None:
            return report
        if pair is not None:
            rounds.pop()
        if key is not None:
            finished.add(key)
        return None

    return visit(strategy, 0) or NoSignalingReport(passed=True, sequences_checked=4 ** n)


def no_signaling_check(subject, n: int, seed=None) -> NoSignalingReport:
    """Exhaustively verify that neither wing reacts to the other's current setting.

    For sequential subjects, toggling round k's setting on one wing must
    leave the other wing's round-k outcome unchanged (later rounds may
    legitimately change through memory).  For collective subjects the
    whole watched wing must be unchanged.  Returns the first violation
    in sequence order (then round, then Bob's toggle before Alice's),
    if any; ``sequences_checked`` is 4^n for a passing subject and the
    first violating sequence's position in product order otherwise.

    A sequential subject is checked once, its type, memory class and
    seed, and then walked by :func:`_walk_prefixes`: each round of each
    setting prefix is played at most once, from a snapshot, through the
    subject's own responders, and prefixes that share a depth and the key
    their parents name for them (``_child_keys``) are walked below only
    once.  So a passing count-driven subject plays one node per (depth,
    count vector), 4·C(n+3, 4) rounds, and a subject without keys all
    (4^(n+1) - 4)/3.  A stochastic subject draws its tape once per
    check, from one :class:`~chshsim.stream.Stream` of the seed, so
    toggles compare like with like; it draws what
    ``default_rng(SeedSequence(seed))`` would, without loading numpy.

    Collective and callable subjects answer whole runs, so they are
    scanned over a table of all 4^n sequences.  Every toggled sequence
    is itself one of the 4^n, so each is played at most once, when the
    scan first needs it, and its two wings kept as outcome masks.

    Once the subject is checked, and before any of it is played, the
    work is predicted and refused (:class:`EnumerationCapError`) over the
    budget: 4·C(n+3, 4) rounds for a :class:`CountDriven` subject that
    keeps its pair-count keys (n <= 52), (4^(n+1) - 4)/3 for any other
    sequential one, and 4^n sequences for a scan (both n <= 10).
    """
    _check_n(n)
    if isinstance(subject, SequentialStrategy):
        if subject.stochastic and seed is None:
            raise ValueError("stochastic strategies need a seed for the exact check")
        memory_class = _memory_class(subject)
        rng = None
        if seed is not None:
            if seed < 0:
                raise ValueError(f"seed: expected non-negative integer, got {seed}")
            rng = Stream(seed)
        keyed = isinstance(subject, CountDriven) and type(subject)._child_keys is CountDriven._child_keys
        _admit(n, 4 * math.comb(n + 3, 4) if keyed else (4 ** (n + 1) - 4) // 3, "walked rounds")
        return _walk_prefixes(subject, memory_class, n, rng)

    play = _mask_function(subject, n)
    _admit(n, 4 ** n, "sequences")
    collective = isinstance(subject, CollectiveStrategy)

    # Sequence i in product order plays pair index (i >> 2 * (n-1-k)) & 3
    # in round k; Bob's setting is bit 0 of that digit and Alice's bit 1,
    # so adding `step` to i toggles one wing's round-k setting.  A table
    # entry is -1 until its sequence is played, then Alice's mask above
    # Bob's: 2n <= 20 bits within the budget, so 4 bytes (4 MB at n = 10).
    table = array("i", [-1]) * 4 ** n
    toggles = []  # in scan order: by round, Bob's toggle before Alice's
    for k in range(n):
        watched = (1 << n) - 1 if collective else 1 << k
        for toggled_side, bit, watched_bits in (
            (Side.BOB, 1, watched << n),
            (Side.ALICE, 2, watched),
        ):
            toggles.append((k, toggled_side, bit, bit << 2 * (n - 1 - k), watched_bits))
    for i, pairs in enumerate(itertools.product(ALL_PAIRS, repeat=n)):
        here = table[i]
        if here < 0:
            here = table[i] = play(pairs)
        for k, toggled_side, bit, step, watched_bits in toggles:
            if i & step:
                # The partner comes earlier in sequence order, and the
                # scan already compared the two when it passed it.
                continue
            there = table[i + step]
            if there < 0:
                toggled = pairs[:k] + (ALL_PAIRS[pairs[k].index + bit],) + pairs[k + 1 :]
                there = table[i + step] = play(toggled)
            moved = (here ^ there) & watched_bits
            if moved:
                lowest = (moved & -moved).bit_length() - 1
                before = -1 if (here >> lowest) & 1 else 1
                return _violation(pairs, i + 1, lowest % n + 1, toggled_side, before)
    return NoSignalingReport(passed=True, sequences_checked=4 ** n)
