"""Command-line frontend.

Subcommands: ``simulate`` (Monte Carlo batches), ``enumerate`` (exact
expectations), ``bounds`` (closed-form bound values), ``table`` (the
per-model-class bound summary), ``nosig`` (exhaustive no-signaling
check).  Output goes to stdout or ``--out`` as JSON or CSV; exact
rationals are serialized as ``p/q`` strings with a decimal convenience
field in JSON.  Exit codes: 0 success, 1 invariant violation (e.g. a
no-signaling failure), 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import MODEL_CLASSES, bounds_table, f_delta, x_mean_bound, x_tail_bound
from .core import InvariantViolation
from .enumerator import exact_collective, exact_expectations, no_signaling_check
from .strategies import (
    STRATEGY_NAMES,
    CollectiveStrategy,
    make_factory,
    parse_weights_csv,
)


def rational(value: Fraction | None) -> dict | None:
    """JSON form of an exact rational: ``{"fraction": "p/q", "decimal": f}``."""
    if value is None:
        return None
    return {"fraction": str(Fraction(value)), "decimal": float(value)}


def stringify(value) -> str:
    """Canonical CSV cell for a payload value."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def flatten_payload(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    """Flatten a nested payload into dotted-key/value rows for CSV."""
    rows: list[tuple[str, str]] = []
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(flatten_payload(value, path + "."))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    rows.extend(flatten_payload(item, f"{path}.{i}."))
                else:
                    rows.append((f"{path}.{i}", stringify(item)))
        else:
            rows.append((path, stringify(value)))
    return rows


def _payload_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows(flatten_payload(payload))
    return buf.getvalue()


def _table_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("model", "e_x", "p_x_tail", "e_y", "p_y_tail"))
    for model in MODEL_CLASSES:
        row = payload["rows"][model]
        writer.writerow(
            (
                model,
                *(
                    "unknown" if row[col] is None else repr(row[col])
                    for col in ("e_x", "p_x_tail", "e_y", "p_y_tail")
                ),
            )
        )
    return buf.getvalue()


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)


def _emit_payload(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.command == "table":
        text = _table_csv(payload)
    else:
        text = _payload_csv(payload)
    _emit(text, args.out)


def _resolve_factory(args):
    lhv = None
    if args.strategy_file is not None:
        if args.strategy != "stochastic-lhv":
            raise ValueError("--strategy-file applies only to --strategy stochastic-lhv")
        with open(args.strategy_file, encoding="utf-8-sig") as fp:
            lhv = parse_weights_csv(fp)
    return make_factory(args.strategy, lhv)


def _cmd_simulate(args) -> int:
    # Imported here so that no other command loads the Monte Carlo layer and numpy.
    from .montecarlo import BATCH_CSV_HEADER, SimulationPlan, batch_csv_rows, compare_tails, estimate

    factory = _resolve_factory(args)
    plan = SimulationPlan(
        factory=factory,
        n=args.n,
        batches=args.batches,
        seed=args.seed,
        delta=args.delta,
        strategy_name=args.strategy,
    )
    x_tail_bound(plan.n, plan.delta)  # refuse a bound with no float value before any batch runs
    if args.batches_out is not None:
        with open(args.batches_out, "w", encoding="utf-8", newline="") as fp:
            fp.write(",".join(BATCH_CSV_HEADER) + "\n")

            def write_rows(tally):
                fp.writelines(batch_csv_rows(tally, plan.n, plan.seed))

            report = estimate(plan, batch_sink=write_rows)
    else:
        report = estimate(plan)
    tails = compare_tails(report)
    payload = {
        "command": "simulate",
        "strategy": report.strategy,
        "n": report.n,
        "batches": report.batches,
        "seed": report.seed,
        "delta": report.delta,
        "mean_y": rational(report.mean_y),
        "se_y": report.se_y,
        "mean_x": report.mean_x,
        "se_x": report.se_x,
        "undefined_count": report.undefined_count,
        "tail_freq_y": rational(report.tail_freq_y),
        "tail_freq_x": rational(report.tail_freq_x),
        "wilson_y_low": report.wilson_y[0],
        "wilson_y_high": report.wilson_y[1],
        "wilson_x_low": report.wilson_x[0],
        "wilson_x_high": report.wilson_x[1],
        "y_tail_bound": tails.y_bound,
        "y_tail_ratio": tails.y_ratio,
        "x_tail_bound": tails.x_bound,
        "x_tail_ratio": tails.x_ratio,
    }
    _emit_payload(payload, args)
    return 0


def _cmd_enumerate(args) -> int:
    strategy = _resolve_factory(args)()
    if isinstance(strategy, CollectiveStrategy):
        if args.distribution:
            raise ValueError("--distribution is not available for collective strategies")
        result = exact_collective(strategy, args.n)
        n_sequences = 4 ** result.n
        payload = {
            "command": "enumerate",
            "strategy": args.strategy,
            "n": result.n,
            "n_sequences": n_sequences,
            "event_counts": {"".join(map(str, p)): count for p, count in result.pattern_counts.items()},
            "p_both_score": f"{result.pattern_counts[(1,) * result.n]}/{n_sequences}",
            "p_both_score_decimal": float(result.p_all),
            "independent_rounds_ceiling": rational(result.independent_ceiling),
        }
    else:
        result = exact_expectations(strategy, args.n, collect_distribution=args.distribution)
        payload = {
            "command": "enumerate",
            "strategy": args.strategy,
            "n": result.n,
            "e_y": rational(result.e_y),
            "e_x_conditional": rational(result.e_x_conditional),
            "p_undefined": rational(result.p_undefined),
        }
        if result.distribution is not None:
            payload["distribution"] = [
                {
                    "y": str(y),
                    "x": None if x is None else str(x),
                    "probability": str(p),
                }
                for y, x, p in result.distribution
            ]
    _emit_payload(payload, args)
    return 0


def _cmd_bounds(args) -> int:
    payload = {
        "command": "bounds",
        "n": args.n,
        "delta": args.delta,
        "epsilon": args.epsilon,
        "f_delta": f_delta(args.n, args.delta),
        "x_tail_bound": x_tail_bound(args.n, args.delta),
        "x_mean_bound": None if args.epsilon is None else x_mean_bound(args.n, args.epsilon),
    }
    _emit_payload(payload, args)
    return 0


def _cmd_table(args) -> int:
    table = bounds_table(args.n, args.delta, args.epsilon)
    payload = {
        "command": "table",
        "n": table.n,
        "delta": table.delta,
        "epsilon": table.epsilon,
        "rows": {
            model: {
                "e_x": row.e_x,
                "p_x_tail": row.p_x_tail,
                "e_y": row.e_y,
                "p_y_tail": row.p_y_tail,
            }
            for model, row in table.rows.items()
        },
    }
    _emit_payload(payload, args)
    return 0


def _cmd_nosig(args) -> int:
    subject = _resolve_factory(args)()
    seed = args.seed if getattr(subject, "stochastic", False) else None
    report = no_signaling_check(subject, args.n, seed=seed)
    counterexample = None
    if report.counterexample is not None:
        ce = report.counterexample
        counterexample = {
            "settings": [str(p) for p in ce.settings],
            "round": ce.round_index,
            "toggled_side": ce.toggled_side.value,
            "watched_side": ce.watched_side.value,
            "before": ce.before,
            "after": ce.after,
        }
    payload = {
        "command": "nosig",
        "strategy": args.strategy,
        "n": args.n,
        "passed": report.passed,
        "sequences_checked": report.sequences_checked,
        "counterexample": counterexample,
    }
    _emit_payload(payload, args)
    return 0 if report.passed else 1


_HANDLERS = {
    "simulate": _cmd_simulate,
    "enumerate": _cmd_enumerate,
    "bounds": _cmd_bounds,
    "table": _cmd_table,
    "nosig": _cmd_nosig,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshsim",
        description="Sequential CHSH experiments: simulate, enumerate exactly, and bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    output.add_argument("--format", choices=("json", "csv"), default="json")

    strat = argparse.ArgumentParser(add_help=False)
    strat.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    strat.add_argument(
        "--strategy-file",
        type=Path,
        default=None,
        help="weights CSV (weight,a1,a2,b1,b2) for stochastic-lhv",
    )

    p = sub.add_parser("simulate", parents=[strat, output], help="run seeded Monte Carlo batches")
    p.add_argument("--n", type=int, required=True, help="rounds per batch")
    p.add_argument("--batches", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.1, help="tail threshold")
    p.add_argument("--batches-out", type=Path, default=None, help="per-batch CSV path")

    p = sub.add_parser("enumerate", parents=[strat, output], help="exact expectations over all setting sequences")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distribution", action="store_true", help="include the exact (Y, X) distribution")

    p = sub.add_parser("bounds", parents=[output], help="closed-form bound values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("table", parents=[output], help="bound summary per model class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.25)

    p = sub.add_parser("nosig", parents=[strat, output], help="exhaustive no-signaling check")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="fixed tape for stochastic strategies")

    return parser


def dispatch(args) -> int:
    """Run one parsed command; exceptions map to exit codes in :func:`main`."""
    return _HANDLERS[args.command](args)


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
