"""Command-line front end.

Exit codes: 0 all verdicts pass; 2 a theorem-check verdict failed, or
``curve validate`` found the curve invalid; 3 unsupported configuration,
among them an invalid curve file given to an experiment, a curve whose
sampler finds no rational point (``SamplingExhausted``, as on a curve with
no F_q-points) and a splitting field beyond ``--ext-cap``
(``ExtensionCapError``); 4 I/O or parse errors,
among them a bad command line (a missing ``--curve``, an unknown subcommand,
``--n x``), which argparse would end with status 2.
Any other exception, among them ``FieldError`` and
``NotInSmoothLocusError``, is a fault of the library rather than of the
configuration: it propagates with its traceback (exit status 1).
"""

import argparse
import json
import sys

from .algebra.fields import FieldError
from .algebra.poly import ExtensionCapError
from .curves import CurveError, SamplingExhausted, ValidationInconclusive, validate
from .harness import (
    ExperimentConfig,
    run_bn_table,
    run_fiber_census,
    run_locus_census,
    run_reconstruct,
    write_report,
)
from .sections import UnsupportedConfiguration
from .spans import NotInSmoothLocusError

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4


def _load_curve(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _census_args(sub):
    sub.add_argument("--curve", required=True, help="curve JSON file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ext-cap", type=int, default=12)
    sub.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser():
    p = argparse.ArgumentParser(prog="wgauss",
                                description="Gauss maps on symmetric products "
                                            "of algebraic curves, exactly")
    sub = p.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="curve file utilities")
    csub = curve.add_subparsers(dest="curve_command", required=True)
    cval = csub.add_parser("validate", help="validate a curve description")
    cval.add_argument("file")

    fc = sub.add_parser("fiber-census", help="fiber cardinality census")
    _census_args(fc)

    lc = sub.add_parser("locus-census", help="intersection-locus census")
    _census_args(lc)
    lc.add_argument("--oracle-cap", type=int, default=0,
                    help="exhaustive q-search extension cap (small fields); "
                         "0 = no oracle, else at least 1 on a hyperelliptic "
                         "curve, n for n = g - 1, max(1, n - 1) otherwise")

    rc = sub.add_parser("reconstruct", help="reconstruction demo")
    _census_args(rc)
    rc.add_argument("--k", type=int, required=True)
    rc.set_defaults(trials=8)

    bn = sub.add_parser("bn-table", help="Brill-Noether predicate table")
    bn.add_argument("--g-min", type=int, required=True)
    bn.add_argument("--g-max", type=int, required=True)
    bn.add_argument("--format", choices=("csv", "json"), default="csv")
    bn.add_argument("--out", default=None)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its usage error and ends with 2, which here
        # means a failed verdict; --help ends with 0
        return EXIT_IO if e.code == 2 else e.code
    try:
        if args.command == "curve":
            desc = _load_curve(args.file)
            try:
                c = validate(desc)
            except ValidationInconclusive as e:
                print(f"inconclusive: {e}")
                return EXIT_UNSUPPORTED
            except CurveError as e:
                print(f"invalid: {e}")
                return EXIT_VERDICT
            print(f"valid: model={c.model} genus={c.genus}")
            return EXIT_OK

        if args.command == "bn-table":
            cfg = ExperimentConfig(experiment="bn-table", g_min=args.g_min,
                                   g_max=args.g_max, fmt=args.format)
            try:
                blob = run_bn_table(cfg)
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return EXIT_IO
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(blob)
            else:
                sys.stdout.write(blob)
            return EXIT_OK

        cfg = ExperimentConfig(
            experiment=args.command,
            curve=_load_curve(args.curve),
            curve_path=args.curve,
            n=args.n,
            k=getattr(args, "k", 0),
            trials=args.trials,
            seed=args.seed,
            ext_cap=args.ext_cap,
            oracle_cap=getattr(args, "oracle_cap", 0),
        )
        runner = {
            "fiber-census": run_fiber_census,
            "locus-census": run_locus_census,
            "reconstruct": run_reconstruct,
        }[args.command]
        report = runner(cfg)
        blob = write_report(report, args.out)
        if not args.out:
            sys.stdout.write(blob)
        return EXIT_OK if report["passed"] else EXIT_VERDICT
    except (UnsupportedConfiguration, ValidationInconclusive, SamplingExhausted) as e:
        print(f"unsupported configuration: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ExtensionCapError as e:
        print(f"unsupported configuration: {e}; a larger --ext-cap admits "
              f"larger splitting fields", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CurveError as e:
        print(f"curve error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (OSError, json.JSONDecodeError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (FieldError, NotInSmoothLocusError):
        raise
    except ValueError as e:
        print(f"unsupported configuration: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
