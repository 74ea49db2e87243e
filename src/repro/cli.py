"""Command-line interface: regenerate any experiment from the shell.

Every subcommand is auto-generated from the experiment registry: each
registered :class:`~repro.experiments.registry.ExperimentSpec` becomes a
subcommand whose flags mirror its parameter schema, plus ``--fast`` /
``--paper`` fidelity-profile selectors and ``--json`` / ``--csv`` output
targets.  Usage::

    python -m repro.cli list
    python -m repro.cli run fig13 --fast
    python -m repro.cli run fig13-policy --fast
    python -m repro.cli fig09 --samples 10000 --json results/fig09.json
    python -m repro.cli fig15-rack --fast --csv results/fig15_rack.csv
    python -m repro.cli dse --full

``run <name>`` and the bare ``<name>`` subcommand are equivalent.  JSON
output is the registry's result document (rows + params + provenance);
CSV output is the flat row table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments import report
from repro.experiments.registry import REGISTRY, ExperimentSpec, Param, load_all


def _argparse_type(param: Param):
    """Adapt Param.parse to argparse's error protocol.

    argparse only turns ValueError/TypeError into usage errors;
    ConfigurationError (e.g. an empty sequence value) would escape as a
    raw traceback otherwise.
    """

    def parse(text: str):
        try:
            return param.parse(text)
        except ConfigurationError as error:
            raise argparse.ArgumentTypeError(str(error)) from error

    parse.__name__ = param.kind
    return parse


def _add_param_argument(command: argparse.ArgumentParser, param: Param) -> None:
    flag = "--" + param.name.replace("_", "-")
    if param.kind == "bool":
        command.add_argument(
            flag,
            action=argparse.BooleanOptionalAction,
            default=param.default,
            help=param.help or None,
        )
        return
    metavar = {
        "int": "N",
        "float": "X",
        "str": "S",
        "ints": "N,N,...",
        "floats": "X,X,...",
        "strs": "S,S,...",
    }[param.kind]
    command.add_argument(
        flag,
        type=_argparse_type(param),
        default=None,
        metavar=metavar,
        help=f"{param.help or param.name} (default: {param.default})",
    )


def _add_spec_parser(subparsers, spec: ExperimentSpec) -> None:
    command = subparsers.add_parser(spec.name, help=spec.description)
    command.set_defaults(experiment=spec.name)
    fidelity = command.add_mutually_exclusive_group()
    fidelity.add_argument(
        "--fast",
        action="store_const",
        const="fast",
        dest="profile",
        help="seconds-scale smoke fidelity profile",
    )
    fidelity.add_argument(
        "--paper",
        action="store_const",
        const="paper",
        dest="profile",
        help="publication-scale fidelity profile",
    )
    for param in spec.cli_params():
        _add_param_argument(command, param)
    command.add_argument(
        "--json", type=str, default=None, help="write the result document here"
    )
    command.add_argument(
        "--csv", type=str, default=None, help="write the row table here"
    )


def build_parser() -> argparse.ArgumentParser:
    load_all()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate DSCS-Serverless (ASPLOS'24) experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    list_parser = subparsers.add_parser(
        "list", help="list every registered experiment"
    )
    list_parser.add_argument(
        "--tag", type=str, default=None, help="only experiments with this tag"
    )
    run_parser = subparsers.add_parser(
        "run", help="run a registered experiment by name"
    )
    run_subparsers = run_parser.add_subparsers(dest="experiment", required=True)
    for spec in REGISTRY.specs():
        _add_spec_parser(subparsers, spec)
        _add_spec_parser(run_subparsers, spec)
    return parser


def _cli_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> dict:
    """Explicitly passed flags only, so profiles fill the rest."""
    overrides = {}
    for param in spec.cli_params():
        value = getattr(args, param.name)
        if param.kind == "bool":
            # Booleans carry their real default (``dse --full`` must
            # parse to False when omitted); only a changed value counts
            # as an explicit override.
            if value != param.default:
                overrides[param.name] = value
        elif value is not None:
            overrides[param.name] = value
    return overrides


def _print_listing(tag: Optional[str]) -> None:
    specs = REGISTRY.by_tag(tag) if tag else REGISTRY.specs()
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.name:12s} [{tags}] {spec.description}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _print_listing(args.tag)
        return 0
    spec = REGISTRY.get(args.experiment)
    try:
        result = REGISTRY.run(
            spec.name, profile=args.profile, **_cli_overrides(spec, args)
        )
    except ConfigurationError as error:
        # A flag combination the experiment rejects is a usage error,
        # reported like argparse reports one, not a traceback.
        print(f"repro {spec.name}: error: {error}", file=sys.stderr)
        return 2
    if spec.headline is not None:
        note = spec.headline(result.study)
        if note:
            print(note)
    print(report.to_markdown(result.rows))
    if args.json:
        print(f"wrote {result.write_json(args.json)}")
    if args.csv:
        print(f"wrote {report.write_csv(result.rows, args.csv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
