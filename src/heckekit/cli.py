"""Command-line front end.

Subcommands emit deterministic tables (TSV by default, JSON behind
--format json), run the verification suites, and reproduce the worked
rank-3 decomposition.  Exit codes: 0 success, 1 a verification suite
failed, 2 input error, 141 stdout closed by its reader (as `| head` does),
the status of a shell command killed by SIGPIPE, with nothing on stderr.

Only the subcommand a call runs gets a parser, built when argparse
dispatches to it; `main` builds a fresh tree per call (see `make_parser`).

Each subcommand loads only the layers it runs.  Importing this module
loads `laurent`, `coxeter` and `hecke`, all that `kl-table` runs.  The
module subcommands add `parabolic` (through `HeckeAlgebra.parabolic`)
and `quotient` (in `_load_module`); `rouquier-shape` adds `rouquier`,
`hom-rank` `soergel`; `example-a3` adds `parabolic` and `soergel`;
`verify` adds every layer but `quotient`.  The subcommand imports its
layer when it runs, as `_load_module` imports `quotient`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import coxeter
from .coxeter import CoxeterMatrix, CoxeterSystem, GroupTooLarge
from .hecke import HeckeAlgebra

if TYPE_CHECKING:
    from .parabolic import ParabolicModule


def _add_common(parser: argparse.ArgumentParser, subset: bool = True) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--type", help='named type, e.g. "A3", "B3", "I2(7)", "A1xA1"')
    group.add_argument("--matrix", help="file with rank and upper-triangular bond labels")
    parser.add_argument("--cap", type=int, default=coxeter.DEFAULT_CAP,
                        help="enumeration cap (default %(default)s)")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    if subset:
        parser.add_argument("--subset", default="",
                            help='generator labels, e.g. "s1,s2" (default: empty)')


def _load_matrix(args) -> tuple[CoxeterMatrix, str]:
    if args.matrix:
        try:
            matrix = CoxeterMatrix.from_file(args.matrix)
        except OSError as exc:
            raise ValueError(str(exc)) from None
        return matrix, f"matrix:{args.matrix}"
    if args.type:
        return CoxeterMatrix.from_name(args.type), args.type
    raise ValueError("one of --type or --matrix is required")


def _load_system(args) -> tuple[CoxeterSystem, str]:
    matrix, label = _load_matrix(args)
    return _build_system(matrix, args.cap), label


def _build_system(matrix: CoxeterMatrix, cap: int) -> CoxeterSystem:
    if cap < 1:
        raise ValueError("--cap must be positive")
    return coxeter.build(matrix, cap=cap)


def _load_module(args) -> tuple[ParabolicModule, str]:
    """The module of --subset and its system's label.

    A non-empty subset of a Cartan system of finite type takes W^I alone
    (`quotient.build`), and --cap bounds |W^I|.  Every other input, a
    subset with a bad label included, builds W first, so its errors come
    in the order they always have."""
    # loaded here, so the subcommands that need W alone never load it
    from . import quotient

    matrix, label = _load_matrix(args)
    tokens = args.subset.split(",") if args.subset.strip() else []
    tokens = [tok.strip() for tok in tokens]
    try:
        subset = [matrix.gen_index(tok) for tok in tokens]
    except ValueError:
        subset = []
    if subset and args.cap >= 1 and quotient.realizable(matrix):
        system = quotient.build(matrix, subset, args.cap)
    else:
        system = _build_system(matrix, args.cap)
        subset = [system.gen_index(tok) for tok in tokens]
    return HeckeAlgebra(system).parabolic(subset), label


def _parse_rep(module, text: str, cap: int) -> int:
    system = module.system
    try:
        return system.parse_min_rep(text, module.subset)
    except ValueError:
        # the route through W builds W before it reads a word, so there
        # an input error behind |W| > cap reads as the cap's error
        system.check_group(cap)
        raise


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _print_table(system: CoxeterSystem, elements, fmt: str, head: dict,
                 keys: tuple[str, str, str], header: str, columns) -> None:
    """Print a table given as columns (b, {a: p}) over `elements`: rows
    (a, b, p), a ascending within each column, as TSV lines below `header`
    or as JSON, `head` with a "rows" list of objects with the given keys,
    byte for byte what json.dumps(indent=2) writes.  Every column holds
    its diagonal entry; the first must not be empty, since it is the one
    whose leading JSON separator is dropped.

    Each column is written as one joined string.  A table repeats few
    words and few distinct polynomials many times, so each word, the
    part of a row shared by a column, and the text of each polynomial
    object, with its row end, are rendered once; the KL tables intern
    their values, so that is once per distinct polynomial."""
    name = {w: system.word_str(w) for w in elements}
    if fmt == "json":
        ka, kb, kp = (f"      {json.dumps(k)}: " for k in keys)
        name = {w: json.dumps(t) for w, t in name.items()}
        # every row opens with the separator; the first row drops it
        first = {w: f",\n    {{\n{ka}{t}" for w, t in name.items()}
        # the head without its closing "\n}", then the rows list
        opening = json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['
        before, after, skip, closing = f",\n{kb}", f",\n{kp}", 1, "\n  ]\n}\n"

        def render(p):
            text = json.dumps(p.to_pairs(), indent=2)
            return text.replace("\n", "\n      ") + "\n    }"
    else:
        first = name
        opening, before, after, skip, closing = header + "\n", "\t", "\t", 0, ""

        def render(p):
            return f"{p}\n"
    # keyed by id: the columns keep every value alive, so no id is reused,
    # and equal values render alike
    texts: dict[int, str] = {}
    write = sys.stdout.write
    write(opening)
    for b, col in columns:
        mid = before + name[b] + after
        parts: list[str] = []
        add = parts.append
        for a in sorted(col):
            p = col[a]
            try:
                text = texts[id(p)]
            except KeyError:
                text = texts[id(p)] = render(p)
            add(first[a])
            add(mid)
            add(text)
        write("".join(parts)[skip:])
        skip = 0
    write(closing)


# -- subcommands ----------------------------------------------------------------


def cmd_kl_table(args) -> int:
    system, label = _load_system(args)
    algebra = HeckeAlgebra(system)
    # the whole basis is computed before the first byte is written;
    # column x of the table is the term map of KL_x
    columns = [(x, algebra.kl_basis(x).terms) for x in range(system.size)]
    _print_table(system, range(system.size), args.format, {"system": label},
                 ("y", "x", "h"), "# y\tx\th", columns)
    return 0


def cmd_parabolic_tables(args) -> int:
    module, label = _load_module(args)
    columns = [(x, module.kl_basis(x).terms) for x in module.reps]
    _print_table(module.system, module.reps, args.format,
                 {"system": label, "subset": module.subset_labels()},
                 ("y", "x", "h"), "# y\tx\th^I", columns)
    return 0


def cmd_inverse_tables(args) -> int:
    module, label = _load_module(args)
    # all columns come before the first byte is written
    columns = [(z, module.inverse_col(z)) for z in module.reps]
    _print_table(module.system, module.reps, args.format,
                 {"system": label, "subset": module.subset_labels()},
                 ("x", "z", "g"), "# x\tz\tg^I", columns)
    return 0


def cmd_rouquier_shape(args) -> int:
    from . import rouquier

    module, label = _load_module(args)
    x = _parse_rep(module, args.x, args.cap)
    shape = (rouquier.e_shape if args.negative else rouquier.f_shape)(module, x)
    if args.format == "json":
        _print_json({
            "system": label,
            "subset": module.subset_labels(),
            "x": module.system.word_str(x),
            "degrees": shape.to_json_obj(),
        })
    else:
        print("# degree\tterms (word:shift:mult)")
        for line in shape.text_lines():
            print(line)
    return 0


def cmd_hom_rank(args) -> int:
    from . import soergel

    module, label = _load_module(args)
    x = _parse_rep(module, args.x, args.cap)
    y = _parse_rep(module, args.y, args.cap)
    rank = soergel.graded_hom_rank(
        soergel.delta_char(module, x), soergel.delta_char(module, y)
    )
    if args.format == "json":
        _print_json({
            "system": label,
            "subset": module.subset_labels(),
            "x": module.system.word_str(x),
            "y": module.system.word_str(y),
            "rank": rank.to_pairs(),
        })
    else:
        print(rank)
    return 0


def cmd_example_a3(args) -> int:
    from . import soergel

    system = _build_system(CoxeterMatrix.from_name("A3"), args.cap)
    algebra = HeckeAlgebra(system)
    module = algebra.parabolic([0, 1])
    char = soergel.bott_samelson_char(module, (0, 1, 2))
    perverse = soergel.is_perverse(char)
    if args.format == "json":
        obj = char.to_json_obj()
        obj.update({"system": "A3", "word": ["s1", "s2", "s3"], "perverse": perverse})
        _print_json(obj)
    else:
        print("# y\tcoefficient")
        for y, c in char.items():
            print(f"{system.word_str(y)}\t{c}")
        print(f"verdict\t{'perverse' if perverse else 'not perverse'}")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    system, label = _load_system(args)
    algebra = HeckeAlgebra(system)
    names = None
    if args.suite:
        names = [n.strip() for n in args.suite.split(",") if n.strip()]
    results = verify.run_suites(algebra, names, seed=args.seed,
                                bs_words=args.bs_words)
    if args.format == "json":
        _print_json({
            "system": label,
            "suites": [
                {
                    "name": r.name,
                    "checks": r.checks,
                    "failures": r.failures,
                    "first_failure": r.first_failure,
                    "passed": r.passed,
                }
                for r in results
            ],
        })
    else:
        print("# suite\tstatus\tchecks\tfailures\tfirst_counterexample")
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name}\t{status}\t{r.checks}\t{r.failures}\t"
                  f"{r.first_failure or '-'}")
    return 0 if all(r.passed for r in results) else 1


# -- parser ---------------------------------------------------------------------
# Each fill adds its subcommand's arguments to the subcommand's parser.


def _fill_kl_table(p: argparse.ArgumentParser) -> None:
    _add_common(p, subset=False)
    p.set_defaults(func=cmd_kl_table)


def _fill_parabolic_tables(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(func=cmd_parabolic_tables)


def _fill_inverse_tables(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(func=cmd_inverse_tables)


def _fill_rouquier_shape(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("x", help='element as a dotted word, e.g. "s1.s2" ("e" = identity)')
    p.add_argument("--negative", action="store_true",
                   help="emit the negative-lift shape instead")
    p.set_defaults(func=cmd_rouquier_shape)


def _fill_hom_rank(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("x", help="element as a dotted word")
    p.add_argument("y", help="element as a dotted word")
    p.set_defaults(func=cmd_hom_rank)


def _fill_example_a3(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=int, default=coxeter.DEFAULT_CAP)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_example_a3)


def _fill_verify(p: argparse.ArgumentParser) -> None:
    from . import verify

    _add_common(p, subset=False)
    p.add_argument("--suite", default="",
                   help=f"comma-separated suite names (default: all); "
                        f"available: {', '.join(verify.SUITES)}")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--words", dest="bs_words", metavar="WORDS", type=int,
                   default=verify.DEFAULT_BS_WORDS,
                   help="random words per subset in bs-positivity")
    p.set_defaults(func=cmd_verify)


# (name, help, fill) of each subcommand, in the order help lists them
COMMANDS = (
    ("kl-table", "emit h_{y,x} for all y <= x", _fill_kl_table),
    ("parabolic-tables", "emit h^I_{y,x} over W^I", _fill_parabolic_tables),
    ("inverse-tables", "emit g^I_{x,z} over W^I", _fill_inverse_tables),
    ("rouquier-shape", "graded shape of the minimal complex of a braid lift",
     _fill_rouquier_shape),
    ("hom-rank", "graded rank of Hom between two indecomposables",
     _fill_hom_rank),
    ("example-a3", "the rank-3 Bott-Samelson decomposition with a "
                   "non-perverse summand pattern", _fill_example_a3),
    ("verify", "run invariant suites; exit 1 on failure", _fill_verify),
)


class _SubcommandsAction(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse dispatches.

    `add_parser` keeps the name and help, all that the top-level help,
    usage and errors read, and maps the name to its `fill`; `__call__`
    builds and fills the chosen parser, then lets argparse run it."""

    def add_parser(self, name, *, help, fill):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = fill

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        sub = self._parser_class(prog=f"{self._prog_prefix} {name}")
        self._name_parser_map[name](sub)
        self._name_parser_map[name] = sub
        super().__call__(parser, namespace, values, option_string)


def make_parser() -> argparse.ArgumentParser:
    """The argparse tree of the CLI: every subcommand of `COMMANDS` is
    registered by name and help, and only the one a parse dispatches to
    is constructed and filled, since constructing and filling all seven
    cost more of a cold point query than its group, module and shape
    work.  `main` builds a fresh tree per call, as a CLI process does: a
    tree kept across calls would only flatter in-process timings."""
    parser = argparse.ArgumentParser(
        prog="heckekit",
        description="Exact Kazhdan-Lusztig, parabolic and Rouquier-shape tables "
                    "for finite Coxeter systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                action=_SubcommandsAction)
    for name, text, fill in COMMANDS:
        sub.add_parser(name, help=text, fill=fill)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early; devnull takes the flush at exit, which
        # would raise again (the SIGPIPE note of Python's `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # input errors and UnsupportedBond are ValueErrors
    except (ValueError, GroupTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
