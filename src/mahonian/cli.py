"""Command line front end.

Subcommands: stat, map, trace (map with --trace), enumerate, genfun,
verify.  Every command accepts --json for machine-readable output carrying
the same data as the text form.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  A usage error prints argparse's usage message or
exactly one "error: " line: commands raise ValueError, KeyError or
TypeError and main alone reports it.  The parameters an enumerate or
genfun family takes are those of its callable's signature; --truncate
is passed to the product families' keyword-only truncate (left unset,
their default holds) and is a usage error for any other family.  verify
checks its check names and bound flags before --all and --list too.  All
computation is deterministic; --seed is accepted and ignored for harness
compatibility.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import bijections as B
from .foata import foata, foata_inverse, foata_trace, render_trace
from . import genfun as G
from . import partitions as P
from . import words as W
from .families import FAMILIES
from .verify import CHECKS, PROFILES, run_check

_STATS = {
    "maj": W.maj,
    "inv": W.inv,
    "des": W.des,
    "exc": W.exc,
    "excess": lambda w: W.excess_profile(w)[1],
    "pairs": lambda w: len(W.match_pairs(w)[0]),
}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_stat(args) -> int:
    word = W.parse_word(args.word)
    wanted = [name for name in _STATS if getattr(args, name)]
    if not wanted:
        wanted = ["maj", "inv", "des"]
    values = {name: _STATS[name](word) for name in wanted}
    payload = {"word": W.format_word(word), **values}
    _emit(args, payload, " ".join(f"{k}={v}" for k, v in values.items()))
    return 0


def _word_map(fn):
    """The _MAPS row of a map from words to words."""

    def row(text: str) -> tuple[dict, str]:
        word = W.parse_word(text)
        image = W.format_word(fn(word))
        return {"input": W.format_word(word), "image": image}, image

    return row


def _beta(text: str) -> tuple[dict, str]:
    x, y = (W.format_word(half) for half in B.ballot_split(W.parse_word(text)))
    return {"first": x, "second": y}, f"{x} {y}"


def _csv(text: str) -> tuple[dict, str]:
    part = P.parse_partition(text)
    image = P.format_partition(B.csv_map(part))
    return {"input": P.format_partition(part), "partition": image}, image


def _lambda(text: str) -> tuple[dict, str]:
    word = W.parse_word(text)
    lam = P.format_partition(P.partition_of_word(word))
    ones = word.count(1)
    return {"word": W.format_word(word), "partition": lam, "box": [ones, len(word) - ones]}, lam


def _boundary(text: str) -> tuple[dict, str]:
    part = P.parse_partition(text)
    word = W.format_word(P.boundary_word(part))
    return {"input": P.format_partition(part), "word": word}, word


def _phi_trace(text: str) -> tuple[dict, str]:
    word = W.parse_word(text)
    trace = [
        {"stage": W.format_word(st), "factors": None if fs is None else [W.format_word(f) for f in fs]}
        for st, fs in foata_trace(word)
    ]
    return {"image": W.format_word(foata(word)), "trace": trace}, render_trace(word)


def _csv_trace(text: str) -> tuple[list, str]:
    stages, blocks = [], []
    for st in B.csv_trace(P.parse_partition(text)):
        lam, w, v = P.format_partition(st["partition"]), W.format_word(st["word"]), W.format_word(st["preimage"])
        stages.append({**st, "partition": lam, "word": w, "preimage": v})
        blocks.append(
            f"lambda = {lam}\n{P.ferrers(st['partition'])}\n"
            f"rho = {list(st['rho'])}   r = {st['r']}   i = {st['i']}\n"
            f"w = {w}\nv = {v}\neps = {list(st['excesses'])}"
        )
    return stages, "\n\n".join(blocks)


# map id -> input text -> (JSON payload, text line), in the order usage lists them
_MAPS = {
    "phi": _word_map(foata),
    "phi-inv": _word_map(foata_inverse),
    "beta": _beta,
    "csv": _csv,
    "gk": _word_map(B.gk_map),
    "gk-inv": _word_map(B.gk_inverse),
    "prime": _word_map(W.reverse_complement),
    "lambda": _lambda,
    "boundary": _boundary,
}
# the maps that show their stages under --trace, read the same way
_TRACES = {"phi": _phi_trace, "csv": _csv_trace}


def _cmd_map(args) -> int:
    if args.trace and args.map not in _TRACES:
        raise ValueError(f"--trace applies only to {' and '.join(_TRACES)}")
    rows = _TRACES if args.trace else _MAPS
    _emit(args, *rows[args.map](args.input))
    return 0


_VARARGS = 0x04  # the code flag of a function taking *args


def _signature(fn) -> tuple[tuple[str, ...], int, bool, tuple[str, ...]]:
    """(positional parameter names, how many of them are required,
    whether fn takes *args, keyword-only parameter names) of a Python
    function, read from its code object and defaults."""
    code = fn.__code__
    n = code.co_argcount
    names = code.co_varnames[: n + code.co_kwonlyargcount]
    return names[:n], n - len(fn.__defaults__ or ()), bool(code.co_flags & _VARARGS), names[n:]


def _call(fn, params: list, usage: str, options: dict):
    """fn(*params, **options); a parameter count that fn's signature does
    not take is a usage error showing usage."""
    positional, required, varargs, _ = _signature(fn)
    if not (required <= len(params) and (varargs or len(params) <= len(positional))):
        raise ValueError(f"wrong number of parameters; usage: {usage}")
    return fn(*params, **options)


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"limit must be nonnegative, got {args.limit}")
    usage, stream, fmt = FAMILIES[args.family]
    items = list(itertools.islice(_call(stream, args.params, usage, {}), args.limit))
    if args.json:
        print(json.dumps({"family": args.family, "items": [fmt(x) for x in items], "count": len(items)}))
    else:
        for x in items:
            print(fmt(x))
    return 0


# the products' keyword-only truncate is read from the --truncate option
_GENFUN = {
    "qint": G.q_int,
    "qfact": G.q_factorial,
    "qbinom": G.q_binomial,
    "catalan-qt": G.catalan_qt,
    "catalan-q": G.catalan_q,
    "triangle-qt": G.catalan_nd_qt,
    "triangle-q": G.catalan_nd_q,
    "fib": G.fib_poly,
    "lucas": G.lucas_poly,
    "lucanomial": G.lucanomial,
    "st-catalan": G.st_catalan,
    "product-no-part": lambda t, *, truncate=20: G.truncated_product([i for i in range(1, truncate + 1) if i != t], truncate),
    "product-mod": lambda modulus, r, *, truncate=20: G.truncated_product(P.parts_off_residues(modulus, r, truncate), truncate),
}


def _cmd_genfun(args) -> int:
    name = args.family
    fn = _GENFUN[name]
    positional, _, _, keyword_only = _signature(fn)
    options = {} if args.truncate is None else {"truncate": args.truncate}
    if options and "truncate" not in keyword_only:
        raise ValueError(f"--truncate applies only to the product families, not to {name}")
    usage = [name, *(k.upper() for k in positional)]
    poly = _call(fn, [int(x) for x in args.params], " ".join(usage), options)
    if args.json:
        print(json.dumps({"family": name, "poly": str(poly), "terms": poly.to_json()}))
    else:
        print(poly)
    return 0


def _int_bounds() -> list[str]:
    """Bound names offered as flags: every check's bounds, all integers."""
    return sorted({k for d in CHECKS.values() for k in d.bounds})


def _cmd_verify(args) -> int:
    # names and bound flags are checked before --all or --list reads them
    unknown = [n for n in args.checks if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check: {', '.join(unknown)} (available checks: {', '.join(CHECKS)})")
    names = list(CHECKS) if args.all or not args.checks else args.checks
    overrides = {k: getattr(args, k) for k in _int_bounds() if getattr(args, k) is not None}
    for flag in overrides:
        if not any(flag in CHECKS[n].bounds for n in names):
            raise ValueError(f"bound --{flag.replace('_', '-')} applies to none of the selected checks: {', '.join(names)}")
    if args.list:
        for name, defn in CHECKS.items():
            print(f"{name}: {defn.doc}")
        return 0
    reports = [
        run_check(
            name,
            bounds={k: v for k, v in overrides.items() if k in CHECKS[name].bounds},
            profile=args.profile,
        )
        for name in names
    ]
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            line = f"{r.verdict.upper()} {r.check} ({r.millis:.0f} ms)"
            if r.witness:
                line += f"  witness: {r.witness}"
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mahonian", description=__doc__)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("--seed", type=int, default=None, help="accepted and ignored")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stat", help="word statistics")
    p.add_argument("word")
    for name in _STATS:
        p.add_argument(f"--{name}", action="store_true")
    p.set_defaults(fn=_cmd_stat)

    p = sub.add_parser("map", help="apply a bijection")
    p.add_argument("map", choices=list(_MAPS))
    p.add_argument("input")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("trace", help="apply a bijection, showing every stage")
    p.add_argument("map", choices=list(_TRACES))
    p.add_argument("input")
    p.set_defaults(fn=_cmd_map, trace=True)

    p = sub.add_parser("enumerate", help="stream a word or partition family")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("genfun", help="print a named polynomial")
    p.add_argument("family", choices=sorted(_GENFUN))
    p.add_argument("params", nargs="*")
    p.add_argument("--truncate", type=int, help="series truncation degree (product families, default 20)")
    p.set_defaults(fn=_cmd_genfun)

    p = sub.add_parser("verify", help="run registered identity checks")
    p.add_argument("checks", nargs="*")
    p.add_argument("--all", action="store_true")
    p.add_argument("--profile", choices=PROFILES, default="quick")
    p.add_argument("--list", action="store_true", help="list available checks")
    for flag in _int_bounds():
        p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None, dest=flag)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
