"""Command-line front end for verification, classification, and demos.

Exit codes are the machine contract: 0 when the property holds (or the
map classifies), 1 when a witness is found (or classification fails),
2 on usage or input errors, an input too large for memory included:
an allocation that numpy is refused.  An allocation that the system
grants but cannot back is not caught: the operating system kills the
process, with no error line.
All results are JSON on standard output (or --out); diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .classify import classify
from .descriptors import map_from_json
from .maps import StateMap

EXIT_HOLDS = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2


class CLIError(ValueError):
    """Invalid invocation or unreadable input."""


# The parser's names are kept here, so that start-up loads neither the
# acceptance suite nor the witness search: each handler imports what it runs.
# The families of acceptance.CLAIMS that the CLI takes by name: the builtin
# maps of verify and classify, and the counterexamples that demo runs
_MAP_NAMES = ("phi", "block-embed", "wigner-random", "constant", "tau-fold", "tau-constant",
              "tau-power2")
_DEMOS = ("block-embed", "proper-subspace", "separable-embed")
# the checks of verify --property, by the names verify._REPORT_CHECKS takes
_PROPERTIES = ("nonexpansive", "noncontractive", "isometry", "orthogonality", "injectivity")


def _builtin_map(name: str, dim: int, seed: int) -> StateMap:
    if name not in _MAP_NAMES:
        raise CLIError(
            f"unknown builtin map {name!r}; use a name from "
            f"{{{', '.join(_MAP_NAMES)}}}, inline JSON, or @file"
        )
    from .acceptance import CLAIMS

    map_ = CLAIMS[name].build(np.random.default_rng(seed), dim)
    if map_.dim_in != dim:
        raise CLIError(f"builtin map {name!r} requires --dim {map_.dim_in}")
    return map_


def _load_map(source: str, dim: int, seed: int) -> StateMap:
    """Resolve --map: builtin name, inline JSON object, or @file path."""
    text = source
    if source.startswith("@"):
        try:
            with open(source[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise CLIError(f"cannot read map file: {err}") from err
    text = text.strip()
    if not text.startswith("{"):
        return _builtin_map(text, dim, seed)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise CLIError(f"malformed map descriptor: {err}") from err
    except ValueError as err:  # an integer of more digits than int() converts
        raise CLIError(f"malformed map descriptor: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits") from err
    try:
        return map_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise CLIError(f"invalid map descriptor: {err}") from err


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise CLIError(f"cannot write output: {err}") from err
    else:
        sys.stdout.write(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import _run_check

    map_ = _load_map(args.map, args.dim, args.seed)
    holds, report, _, _ = _run_check(
        args.property, map_, args.dim, args.samples, args.seed, args.refine_steps
    )
    _emit(report.to_json(), args.out)
    return EXIT_HOLDS if holds else EXIT_WITNESS


def _cmd_classify(args: argparse.Namespace) -> int:
    map_ = _load_map(args.map, args.dim, args.seed)
    result = classify(map_, args.dim)
    _emit(result.to_json(), args.out)
    return EXIT_HOLDS if result.classified else EXIT_WITNESS


def _cmd_demo(args: argparse.Namespace) -> int:
    from .acceptance import CLAIMS, run_claim

    params = {name: getattr(args, name) for name in CLAIMS[args.target].params}
    # the target options of demo: each target takes the ones its builder declares
    options = {name for target in _DEMOS for name in CLAIMS[target].params}
    refused = [f"--{name}" for name in sorted(options - set(params))
               if getattr(args, name) is not None]
    if refused:
        raise CLIError(f"demo {args.target} takes no {', '.join(refused)}")
    bundle, ok, _ = run_claim(
        args.target, args.dim, np.random.default_rng(np.random.SeedSequence((args.seed, 9))),
        args.samples, args.seed, args.refine_steps, **params,
    )
    _emit(bundle, args.out)
    return EXIT_HOLDS if ok else EXIT_WITNESS


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all()
    for r in results:
        line = f"[{'PASS' if r.passed else 'FAIL'}] {r.num:2d} {r.name}: {r.detail}"
        print(line, file=sys.stderr)
    passed = all(r.passed for r in results)
    _emit(
        {"criteria": [r.to_json() for r in results], "passed": passed},
        args.out,
    )
    return EXIT_HOLDS if passed else EXIT_WITNESS


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dim", type=int, default=3,
                     help="state-space dimension (default 3)")
    sub.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    sub.add_argument("--out", default=None, help="write JSON here instead of stdout")


def _add_search(sub: argparse.ArgumentParser) -> None:
    """The witness-search options of verify and demo."""
    sub.add_argument("--samples", type=int, default=10000,
                     help="sample budget; a search ends after the first chunk of "
                     "2048 samples that proves a witness, and a report's samples "
                     "counts the samples it compared (default 10000)")
    sub.add_argument("--refine-steps", type=int, default=200,
                     help="cap on the local refinement steps of a metric witness "
                     "and of a collision search's pair that does not collide; any "
                     "other scan winner is reported unrefined. Refinement takes only "
                     "gains above 1e-12 and stops once its step is below 1e-10 or "
                     "once its last 10 gains raised the gap by less than 3e-3 of it, "
                     "which loses a witness (gap above 1e-9 + 1e-12) at most 3.9e-2 "
                     "of its gap (README, refinement) (default 200)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Metric geometry of pure states: witness search and "
        "classification of nonexpansive maps.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    verify = subs.add_parser("verify", help="seeded witness search for one property")
    verify.add_argument(
        "--property",
        choices=_PROPERTIES,
        required=True,
    )
    verify.add_argument("--map", required=True,
                        help="builtin name, inline JSON descriptor, or @file")
    _add_common(verify)
    _add_search(verify)
    verify.set_defaults(handler=_cmd_verify)

    cls = subs.add_parser("classify", help="classify a black-box nonexpansive map")
    cls.add_argument("--map", required=True,
                     help="builtin name, inline JSON descriptor, or @file")
    _add_common(cls)
    cls.set_defaults(handler=_cmd_classify)

    demo = subs.add_parser("demo", help="build a counterexample and verify it")
    demo.add_argument("target", choices=_DEMOS)
    demo.add_argument("--anchors", type=int, default=None,
                      help="anchor count for separable-embed (default 32)")
    demo.add_argument("--k", type=int, default=None,
                      help="subspace dimension for proper-subspace (default dim-1)")
    _add_common(demo)
    _add_search(demo)
    demo.set_defaults(handler=_cmd_demo)

    selftest = subs.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--out", default=None,
                          help="write JSON here instead of stdout")
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has written the usage error (2) or --help (0)
        return stop.code
    try:
        # one check for every subcommand, before a handler seeds anything:
        # classify of a map that draws no rotation would never see the seed
        if getattr(args, "seed", 0) < 0:
            raise CLIError("seed must be nonnegative")
        if getattr(args, "refine_steps", 0) < 0:  # classify and selftest have no such option
            raise CLIError("refinement cap must be nonnegative")
        return args.handler(args)
    except (ValueError, OSError) as err:  # CLIError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as err:  # an input too large to hold is an input error
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
