"""Independent brute-force oracles that pin expected test values.

Everything here is reimplemented from scratch on plain integers (pair
index 0..3 in the order (A1,B1), (A1,B2), (A2,B1), (A2,B2); outcomes
+1/-1) and stays deliberately naive.  Nothing imports from the package
under test.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

PAIRS = (0, 1, 2, 3)


def score(pair, a, b):
    """1 if the round meets its target: equal outcomes except for pair 3."""
    if pair < 3:
        return 1 if a == b else 0
    return 1 if a != b else 0


def quantum_bob(pair, a, scores):
    """Bob's outcome in the ideal singlet sampler: the one of +1, -1 whose
    round meets the target exactly when the round's tape entry ``scores``."""
    for b in (1, -1):
        if score(pair, a, b) == (1 if scores else 0):
            return b


def assignment_outcomes(assignment, pair):
    """(a, b) an assignment (a1, a2, b1, b2) produces on a pair index."""
    a1, a2, b1, b2 = assignment
    a = a1 if pair < 2 else a2
    b = b1 if pair % 2 == 0 else b2
    return a, b


def chsh_of_assignment(assignment):
    return sum(score(p, *assignment_outcomes(assignment, p)) for p in PAIRS)


def all_assignments():
    return list(itertools.product((1, -1), repeat=4))


@functools.cache
def sabotage_assignment(target):
    """The unique a1=+1 assignment violating exactly the target's term."""
    hits = [
        asg
        for asg in all_assignments()
        if asg[0] == 1
        and all(score(p, *assignment_outcomes(asg, p)) == (0 if p == target else 1) for p in PAIRS)
    ]
    assert len(hits) == 1, hits
    return hits[0]


def guessing_outcomes(pairs, last_of_tied=False):
    """Round outcomes of the most-measured-pair sabotage rule.

    Round 1 answers +1 everywhere; afterwards the target is the pair
    with the highest count so far, the earliest of tied pairs winning,
    or the last with ``last_of_tied``.
    """
    counts = [0, 0, 0, 0]
    outcomes = []
    for k, pair in enumerate(pairs):
        if k == 0:
            assignment = (1, 1, 1, 1)
        else:
            tied = [p for p in PAIRS if counts[p] == max(counts)]
            target = tied[-1] if last_of_tied else tied[0]
            assignment = sabotage_assignment(target)
        outcomes.append(assignment_outcomes(assignment, pair))
        counts[pair] += 1
    return outcomes


def constant_outcomes(pairs):
    return [(1, 1) for _ in pairs]


def y_and_x(scores, totals, n):
    """(Y, X) of one run from per-pair scores and totals; X None if a pair is missing."""
    y = Fraction(4 * sum(scores), n)
    if not all(totals):
        return y, None
    return y, sum(Fraction(s, t) for s, t in zip(scores, totals))


def exact_over_sequences(outcome_rule, n):
    """(E(Y), E(X | defined), P(undefined), table) over all 4^n uniform sequences.

    ``table`` maps each (Y, X) value, X None when undefined, to the
    number of sequences giving it.
    """
    y_sum = Fraction(0)
    x_sum = Fraction(0)
    defined = 0
    total = 0
    table = Counter()
    for pairs in itertools.product(PAIRS, repeat=n):
        outcomes = outcome_rule(pairs)
        totals = [0, 0, 0, 0]
        scores = [0, 0, 0, 0]
        for pair, (a, b) in zip(pairs, outcomes):
            totals[pair] += 1
            scores[pair] += score(pair, a, b)
        y, x = y_and_x(scores, totals, n)
        y_sum += y
        if x is not None:
            defined += 1
            x_sum += x
        table[y, x] += 1
        total += 1
    e_y = y_sum / total
    e_x = x_sum / defined if defined else None
    return e_y, e_x, Fraction(total - defined, total), dict(table)


def inverse_count_over_completions(n, counts, pair):
    """Sum of 1/(final count of ``pair``) over the 4^r completions of a round on ``pair``.

    The round follows k = sum(counts) completed rounds with these pair
    counts and leaves r = n - k - 1 rounds, each of which is tried on
    every pair; completions that leave some pair unmet add nothing.
    """
    total = Fraction(0)
    for rest in itertools.product(PAIRS, repeat=n - sum(counts) - 1):
        final = list(counts)
        final[pair] += 1
        for p in rest:
            final[p] += 1
        if all(final):
            total += Fraction(1, final[pair])
    return total


def batch_csv_row(batch, seed, n, scores, totals):
    """One per-batch CSV row: batch, seed, n, Y, X defined (0/1), X (empty
    when undefined; Y and X as the repr of the float of the exact
    rational), then the four scores and the four totals."""
    y, x = y_and_x(scores, totals, n)
    return (
        batch,
        seed,
        n,
        repr(float(y)),
        int(x is not None),
        "" if x is None else repr(float(x)),
        *scores,
        *totals,
    )


def collective_n2_outcomes(alice_settings, bob_settings):
    """Hand-coded rule of the two-round collective model.

    Settings are 0/1 per wing per round; outcomes +-1 with the special
    cases: Alice (0,1) -> (+1,-1), Bob (1,0) -> (-1,+1).
    """
    a_out = (1, -1) if tuple(alice_settings) == (0, 1) else (1, 1)
    b_out = (-1, 1) if tuple(bob_settings) == (1, 0) else (1, 1)
    return a_out, b_out


def collective_n2_both_score_probability():
    hits = 0
    total = 0
    for a_seq in itertools.product((0, 1), repeat=2):
        for b_seq in itertools.product((0, 1), repeat=2):
            a_out, b_out = collective_n2_outcomes(a_seq, b_seq)
            pair1 = 2 * a_seq[0] + b_seq[0]
            pair2 = 2 * a_seq[1] + b_seq[1]
            if score(pair1, a_out[0], b_out[0]) and score(pair2, a_out[1], b_out[1]):
                hits += 1
            total += 1
    return Fraction(hits, total)


def three_round_alice(settings):
    """Alice's side of a three-round collective rule: -1 in every round but
    the last whose setting and the next round's are both A2."""
    n = len(settings)
    return tuple(-1 if k + 1 < n and settings[k] and settings[k + 1] else 1 for k in range(n))


def three_round_bob(settings):
    """Bob's side: -1 in every B2 round once at least two rounds are B2."""
    return tuple(-1 if s and sum(settings) >= 2 else 1 for s in settings)


def collective_pattern_counts(alice_rule, bob_rule, n):
    """Sequences per round-score pattern of a collective rule, over all 4^n.

    Each rule maps one wing's 0/1 settings to its outcomes; a pair index
    is 2 * Alice's setting + Bob's.  Returns {pattern: count} with
    patterns as 0/1 tuples, round 1 first.
    """
    table = Counter()
    for pairs in itertools.product(PAIRS, repeat=n):
        a_out = alice_rule(tuple(p // 2 for p in pairs))
        b_out = bob_rule(tuple(p % 2 for p in pairs))
        table[tuple(score(p, a, b) for p, a, b in zip(pairs, a_out, b_out))] += 1
    return dict(table)


def model101_trigger_probability():
    """Multinomial chance of counts (33, 33, 33, 1) over 100 uniform draws."""
    ways = (
        math.factorial(100)
        // (math.factorial(33) ** 3 * math.factorial(1))
    )
    return Fraction(ways, 4 ** 100)


def model101_branch_x_values():
    """Ratio statistics of the four 101st-round branches after the trigger.

    History: 33 correlated rounds on each of pairs 0..2 and one
    correlated round on pair 3; the rigged round answers a=+1 and
    b=+1/-1 for Bob settings 0/1.
    """
    values = []
    for final_pair in PAIRS:
        totals = [33, 33, 33, 1]
        scores = [33, 33, 33, 0]
        a, b = assignment_outcomes((1, 1, 1, -1), final_pair)
        totals[final_pair] += 1
        scores[final_pair] += score(final_pair, a, b)
        values.append(sum(Fraction(s, t) for s, t in zip(scores, totals)))
    return values


def log10_trigger_probability_via_lgamma():
    log_ways = math.lgamma(101) - 3 * math.lgamma(34) - math.lgamma(2)
    return (log_ways - 100 * math.log(4)) / math.log(10)


def no_signaling_by_toggling(run, n, whole_run=False):
    """Toggle-and-replay no-signaling check over all 4^n sequences.

    ``run`` maps a tuple of pair indices to (Alice's outcomes, Bob's
    outcomes).  Every sequence is replayed once per round and wing with
    that wing's round-k setting flipped: bit 0 of a pair index is Bob's
    setting, bit 1 Alice's.  The other wing's round-k outcome must not
    move; with ``whole_run`` (collective subjects) none of its outcomes
    may.  Returns (passed, sequences checked, first violation or None),
    a violation being (pair indices, 1-based round, toggled wing,
    watched wing, outcome before, outcome after).
    """
    checked = 0
    for pairs in itertools.product(PAIRS, repeat=n):
        base = run(pairs)
        checked += 1
        for k in range(n):
            for toggled, flip, watched, watched_name in (
                ("bob", 1, 0, "alice"),
                ("alice", 2, 1, "bob"),
            ):
                toggled_pairs = pairs[:k] + (pairs[k] ^ flip,) + pairs[k + 1 :]
                alt = run(toggled_pairs)[watched]
                for j in range(n) if whole_run else (k,):
                    if alt[j] != base[watched][j]:
                        violation = (pairs, j + 1, toggled, watched_name, base[watched][j], alt[j])
                        return False, checked, violation
    return True, checked, None


def fold_batches(batches, n, delta_text):
    """Aggregate per-batch counts one batch at a time, in exact rationals.

    ``batches`` holds (scoring counts, pair totals) per batch, four each
    in pair order; ``delta_text`` is the decimal tail threshold.  Y_N and
    X_N are exact; the ratio statistic is summed in floats in batch order,
    which is how the simulator defines its mean and standard error.
    Returns the report fields (mean_y, se_y, mean_x, se_x,
    undefined_count, tail_freq_y, tail_freq_x).
    """
    delta = Fraction(delta_text)
    y_cut = 3 + delta
    x_cut = (3 + delta) / (1 - delta)
    ys = []
    y_tail = x_tail = defined = 0
    x_sum = x_sqsum = 0.0
    for scores, totals in batches:
        y, x = y_and_x(scores, totals, n)
        ys.append(y)
        y_tail += y > y_cut
        if x is not None:
            defined += 1
            xf = float(x)
            x_sum += xf
            x_sqsum += xf * xf
            x_tail += x > x_cut
    r = len(ys)
    mean_y = sum(ys) / r
    se_y = None
    if r > 1:
        variance = sum((y - mean_y) ** 2 for y in ys) / (r - 1)
        se_y = math.sqrt(variance / r)
    se_x = None
    if defined > 1:
        se_x = math.sqrt(max(0.0, (x_sqsum - x_sum * x_sum / defined) / (defined - 1)) / defined)
    return {
        "mean_y": mean_y,
        "se_y": se_y,
        "mean_x": x_sum / defined if defined else None,
        "se_x": se_x,
        "undefined_count": r - defined,
        "tail_freq_y": Fraction(y_tail, r),
        "tail_freq_x": Fraction(x_tail, r),
    }
