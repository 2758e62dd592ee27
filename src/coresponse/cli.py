"""File-driven command line interface.

Every subcommand reads declared inputs, writes its outputs plus a
``resolved_config.txt`` snapshot into ``--out``, and derives all randomness
from ``--seed``, so reruns with the same configuration are byte-identical
at any ``--threads`` setting.  Options may also come from a plain
``key=value`` config file; explicit flags win.

Exit codes: 0 success, 2 usage, 3 parse/input, 4 validation, 5 numeric.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (centralities, locate_group, louvain, write_annotated_graph,
                        write_centralities, write_clusters, write_location)
from .errors import CoresponseError, NumericError, ParseError, ValidationError
from .evaluation import (convolved_matrix, evaluate_method, write_reports,
                         write_t_tests)
from .ga import OptimizerConfig
from .importance import (DISPLAY_THRESHOLD, discover_importance,
                         write_group_network)
from .ingest import (css_normalize, filter_sparse_taxa, load_abundance,
                     load_function, write_abundance, write_function)
from .model_select import (DEFAULT_MU_GRID, mu_sweep, sweep_k, write_sweep)
from .network import (NetworkInferenceConfig, infer_network, load_adjacency,
                      write_adjacency, write_edge_list)
from .synth import SynthSpec, generate, write_bundle
from .tables import fmt, parse_cell, read_table, read_text, write_table
from .utils import child_int

FORMAT_VERSION = 1

_DELIMITERS = {"comma": ",", "tab": "\t"}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _delimiter(args) -> str:
    return _DELIMITERS[args.delimiter]


def _snapshot(args, out: Path) -> None:
    """Write ``resolved_config.txt``.

    A path argument that the locale could not decode holds surrogate
    escapes; they are written back as the argument's original bytes.
    """
    skip = {"func", "config"}
    lines = [f"{key}={value}" for key, value in sorted(vars(args).items())
             if key not in skip]
    (out / "resolved_config.txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8",
                                             errors="surrogateescape")


def _parse_mu_grid(text: str) -> tuple:
    try:
        grid = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ParseError(f"bad --mu-grid value: {exc}") from None
    if not grid:
        raise ParseError("--mu-grid must list at least one value")
    return grid


def _parse_planted(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ParseError(f"bad --planted value: {exc}") from None


def _ga_config(args, mode: str, **overrides) -> OptimizerConfig:
    return OptimizerConfig(
        mode=mode,
        population_size=args.population_size,
        max_generations=args.max_generations,
        stagnation_limit=args.stagnation_limit,
        seed=args.seed,
        **overrides,
    )


def _load_dataset(args):
    abundance = load_abundance(args.abundance)
    function = load_function(args.function, abundance)
    return abundance, function


def _check_k(args, abundance) -> None:
    """Reject a --k past the taxon count: every such cap is the all-taxa
    search."""
    if args.k is not None and args.k > abundance.n_taxa:
        raise ValidationError(f"--k {args.k} exceeds the "
                              f"{abundance.n_taxa} taxa")


def _load_network(args, abundance):
    if getattr(args, "no_graph", False):
        return None
    if args.adjacency is None:
        raise ValidationError("either --adjacency or --no-graph is required")
    return load_adjacency(args.adjacency, abundance.taxon_labels)


def cmd_ingest(args) -> None:
    out = _out_dir(args)
    delim = _delimiter(args)
    abundance = load_abundance(args.abundance, args.orientation)
    abundance = filter_sparse_taxa(abundance, args.max_zero_fraction)
    abundance = css_normalize(abundance, args.css_quantile, args.css_scale)
    function = load_function(args.function, abundance)
    write_abundance(abundance, out / "abundance_normalized.csv", delim)
    write_function(function, abundance.sample_ids,
                   out / "function_aligned.csv", delim)
    _snapshot(args, out)


def cmd_infer_net(args) -> None:
    out = _out_dir(args)
    delim = _delimiter(args)
    abundance = load_abundance(args.abundance)
    cfg = NetworkInferenceConfig(mu1=args.mu1, mu2=args.mu2,
                                 tolerance=args.tolerance)
    net = infer_network(abundance, cfg)
    write_adjacency(net, out / "adjacency.csv", delim)
    write_edge_list(net, out / "edge_list.csv", delimiter=delim)
    _snapshot(args, out)


def cmd_select_k(args) -> None:
    out = _out_dir(args)
    delim = _delimiter(args)
    abundance, function = _load_dataset(args)
    if args.k_max > abundance.n_taxa:
        # every k past p would repeat the all-taxa search
        raise ValidationError(f"--k-max {args.k_max} exceeds the "
                              f"{abundance.n_taxa} taxa")
    M = convolved_matrix(abundance, _load_network(args, abundance))
    cfg = _ga_config(args, "size_cap", k_opt=args.k_min)
    result = sweep_k(M, function.values, (args.k_min, args.k_max),
                     args.repeats, cfg, threads=args.threads)
    write_sweep(result, out / "sweep.csv", delim)
    write_table(out / "sweep_summary.csv", ["k", "mean_aic"],
                [[str(k), fmt(mean)] for k, _, mean in result.per_k], delim)
    (out / "chosen_k.txt").write_text(f"{result.chosen_k}\n", encoding="utf-8")
    _snapshot(args, out)


def cmd_discover(args) -> None:
    if not math.isfinite(args.display_threshold):
        raise ValidationError("--display-threshold must be finite")
    out = _out_dir(args)
    delim = _delimiter(args)
    abundance, function = _load_dataset(args)
    _check_k(args, abundance)
    M = convolved_matrix(abundance, _load_network(args, abundance))

    mu = args.mu
    if args.mode == "size_cap":
        if args.k is None:
            raise ValidationError("size_cap mode needs --k (run select-k first)")
        cfg = _ga_config(args, "size_cap", k_opt=args.k)
    else:
        if mu is None:
            tune_cfg = _ga_config(args, "l1")
            tuned = mu_sweep(M, function.values, _parse_mu_grid(args.mu_grid),
                             replace(tune_cfg, seed=child_int(args.seed, 1)),
                             threads=args.threads)
            mu = tuned.chosen_mu
        cfg = _ga_config(args, "l1", mu=mu)

    report = discover_importance(M, function.values, cfg, runs=args.runs,
                                 top_k=args.top_k, threads=args.threads)
    importance = report.importance
    labels = abundance.taxon_labels
    write_group_network(importance, labels, abundance.values,
                        out / "importance_nodes.csv",
                        out / "importance_edges.csv",
                        out / "group_graph.graphml",
                        display_threshold=args.display_threshold,
                        delimiter=delim)
    top_rows = [
        [str(rank + 1), labels[i], fmt(importance.taxon_importance[i])]
        for rank, i in enumerate(report.top_indices)
    ]
    write_table(out / "top_group.csv", ["rank", "taxon", "importance"],
                top_rows, delim)
    summary = [
        ["mode", args.mode],
        ["runs", str(args.runs)],
        ["k", "" if args.k is None else str(args.k)],
        ["mu", "" if mu is None else fmt(mu)],
        ["top_k", str(report.top_k)],
        ["top_group_r", fmt(report.top_group_r)],
    ]
    write_table(out / "discovery_summary.csv", ["key", "value"], summary, delim)
    _snapshot(args, out)


_METHOD_TAGS = ("baseline", "baseline_l1", "convolved", "convolved_l1")


def cmd_evaluate(args) -> None:
    out = _out_dir(args)
    delim = _delimiter(args)
    abundance, function = _load_dataset(args)
    methods = tuple(tag.strip() for tag in args.methods.split(",") if tag.strip())
    unknown = [tag for tag in methods if tag not in _METHOD_TAGS]
    if unknown:
        raise ValidationError(
            f"unknown method(s) {unknown}; choose from {list(_METHOD_TAGS)}"
        )
    repeated = sorted({tag for tag in methods if methods.count(tag) > 1})
    if repeated:
        raise ValidationError(f"repeated method(s) {repeated} in --methods")
    if not methods:
        raise ValidationError("--methods must list at least one method")
    if len(methods) > 1 and args.repeats < 2:
        raise ValidationError(
            "the paired t-test between methods needs --repeats >= 2")
    capped = [tag for tag in methods if not tag.endswith("_l1")]
    if capped and args.k is None:
        raise ValidationError(
            f"method(s) {capped} need --k (run select-k first)")
    _check_k(args, abundance)
    graph_methods = [tag for tag in methods if not tag.startswith("baseline")]
    if graph_methods and args.no_graph:
        raise ValidationError(
            f"method(s) {graph_methods} need a network; --no-graph allows "
            "only the baseline methods")
    net = _load_network(args, abundance) if graph_methods else None
    # the searched matrix of each graph, convolved once; the network is
    # dropped before the searches
    matrices = {baseline: convolved_matrix(abundance, None if baseline else net)
                for baseline in dict.fromkeys(tag.startswith("baseline")
                                              for tag in methods)}
    del net

    reports = []
    for tag in methods:
        if tag.endswith("_l1"):
            cfg = _ga_config(args, "l1",
                             mu=0.0 if args.mu is None else args.mu)
            grid = None if args.mu is not None else _parse_mu_grid(args.mu_grid)
        else:
            cfg = _ga_config(args, "size_cap", k_opt=args.k)
            grid = None
        reports.append(evaluate_method(
            matrices[tag.startswith("baseline")], function.values, cfg,
            args.repeats, method_tag=tag, fraction=args.fraction,
            n_strata=args.strata,
            mu_grid=grid, inner_repeats=args.inner_repeats,
            threads=args.threads))

    write_reports(reports, out / "per_repeat.csv", out / "summary.csv", delim)
    if len(reports) > 1:
        write_t_tests(reports, out / "ttest.csv", delim)
    _snapshot(args, out)


def cmd_analyze(args) -> None:
    if not math.isfinite(args.min_weight):
        raise ValidationError("--min-weight must be finite")
    out = _out_dir(args)
    delim = _delimiter(args)

    header, rows, _ = read_table(args.importance)
    if header[:2] != ["taxon", "importance"]:
        raise ParseError(
            f"{args.importance}: expected an importance node table "
            "(taxon, importance, ...)")
    labels = tuple(row[0] for row in rows)

    def column(j):
        return np.array([parse_cell(row[j], args.importance, row=i + 2,
                                    col=j + 1)
                         for i, row in enumerate(rows)])

    ivec = column(1)
    mra = (column(2)
           if len(header) > 2 and header[2] == "mean_relative_abundance"
           else None)

    net = load_adjacency(args.adjacency, labels)
    clusters = louvain(net, args.resolution, seed=args.seed)
    cent = centralities(net)
    top_k = args.top_k if args.top_k is not None else max(
        1, int((ivec > 0).sum()))
    report = locate_group(net, ivec, top_k, clusters=clusters, cent=cent)

    write_clusters(clusters, labels, out / "clusters.csv", delim)
    write_centralities(cent, labels, out / "centralities.csv", delim)
    write_location(report, labels, ivec, out / "location.csv", delim)
    write_annotated_graph(net, out / "annotated_graph.graphml",
                          clusters=clusters, cent=cent, importance=ivec,
                          mean_abundance=mra, min_weight=args.min_weight)
    summary = [
        ["modularity_q", fmt(clusters.modularity_q)],
        ["n_clusters", str(clusters.n_clusters)],
        ["top_k", str(top_k)],
        ["clusters_spanned", str(report.n_clusters_spanned)],
        ["linked_to_top", str(report.n_linked_to_top)],
        ["common_neighbors", str(report.n_common_neighbors)],
    ]
    write_table(out / "analysis_summary.csv", ["key", "value"], summary, delim)
    _snapshot(args, out)


def cmd_synth(args) -> None:
    out = _out_dir(args)
    planted = (_parse_planted(args.planted) if args.planted
               else tuple(range(args.planted_size)))
    spec = SynthSpec(
        n_samples=args.n_samples, n_taxa=args.n_taxa, n_blocks=args.n_blocks,
        intra_block_weight=args.intra, inter_block_weight=args.inter,
        planted_group=planted, noise_sigma=args.noise_sigma, seed=args.seed,
    )
    write_bundle(generate(spec), out, _delimiter(args))
    _snapshot(args, out)


def _add_common(sub) -> None:
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None,
                     help="key=value file; flags override it")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker cap; results do not depend on it")
    sub.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="comma")


def _add_ga_options(sub) -> None:
    sub.add_argument("--population-size", type=int, default=200)
    sub.add_argument("--max-generations", type=int, default=500)
    sub.add_argument("--stagnation-limit", type=int, default=50)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coresponse",
        description="Functional co-response group discovery over "
                    "co-occurrence networks.")
    parser.add_argument(
        "--version", action="version",
        version=f"coresponse {__version__} (table format {FORMAT_VERSION})")
    commands = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    def add_parser(name, **kwargs):
        sub = commands.add_parser(name, **kwargs)
        parser.subcommands[name] = sub
        return sub

    sub = add_parser("ingest", help="filter and normalize a dataset")
    sub.add_argument("--abundance", required=True)
    sub.add_argument("--function", required=True)
    sub.add_argument("--orientation", default="samples-as-rows",
                     choices=("samples-as-rows", "taxa-as-rows"))
    sub.add_argument("--max-zero-fraction", type=float, default=0.80)
    sub.add_argument("--css-quantile", type=float, default=0.50)
    sub.add_argument("--css-scale", type=float, default=1000.0,
                     help="value each sample's cumulative sum at the "
                          "quantile is scaled to; must be finite and > 0")
    _add_common(sub)
    sub.set_defaults(func=cmd_ingest)

    sub = add_parser("infer-net", help="infer the co-occurrence network")
    sub.add_argument("--abundance", required=True)
    sub.add_argument("--mu1", type=float, default=0.1)
    sub.add_argument("--mu2", type=float, default=0.01)
    sub.add_argument("--tolerance", type=float, default=1e-8,
                     help="KKT violation the exact finish allows off a "
                          "column's support")
    _add_common(sub)
    sub.set_defaults(func=cmd_infer_net)

    sub = add_parser("select-k", help="choose the group size by AIC")
    sub.add_argument("--abundance", required=True)
    sub.add_argument("--function", required=True)
    sub.add_argument("--adjacency", default=None)
    sub.add_argument("--no-graph", action="store_true",
                     help="identity operator (raw-abundance baseline)")
    sub.add_argument("--k-min", type=int, default=2)
    sub.add_argument("--k-max", type=int, default=50)
    sub.add_argument("--repeats", type=int, default=10)
    _add_ga_options(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_select_k)

    sub = add_parser("discover",
                     help="find the group and taxon importances")
    sub.add_argument("--abundance", required=True)
    sub.add_argument("--function", required=True)
    sub.add_argument("--adjacency", default=None)
    sub.add_argument("--no-graph", action="store_true")
    sub.add_argument("--mode", choices=("size_cap", "l1"), default="size_cap")
    sub.add_argument("--k", type=int, default=None,
                     help="group size cap (size_cap mode)")
    sub.add_argument("--mu", type=float, default=None,
                     help="fixed l1 penalty; omit to tune over --mu-grid")
    sub.add_argument("--mu-grid",
                     default=",".join(fmt(m) for m in DEFAULT_MU_GRID))
    sub.add_argument("--runs", type=int, default=10)
    sub.add_argument("--top-k", type=int, default=None)
    sub.add_argument("--display-threshold", type=float,
                     default=DISPLAY_THRESHOLD)
    _add_ga_options(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_discover)

    sub = add_parser("evaluate", help="stratified train/test comparison")
    sub.add_argument("--abundance", required=True)
    sub.add_argument("--function", required=True)
    sub.add_argument("--adjacency", default=None)
    sub.add_argument("--no-graph", action="store_true")
    sub.add_argument("--methods", default="baseline,convolved")
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--mu", type=float, default=None)
    sub.add_argument("--mu-grid",
                     default=",".join(fmt(m) for m in DEFAULT_MU_GRID))
    sub.add_argument("--repeats", type=int, default=100)
    sub.add_argument("--fraction", type=float, default=0.5)
    sub.add_argument("--strata", type=int, default=10)
    sub.add_argument("--inner-repeats", type=int, default=1)
    _add_ga_options(sub)
    _add_common(sub)
    sub.set_defaults(func=cmd_evaluate)

    sub = add_parser("analyze",
                     help="clusters and centralities of the network")
    sub.add_argument("--adjacency", required=True)
    sub.add_argument("--importance", required=True,
                     help="importance_nodes.csv from discover")
    sub.add_argument("--top-k", type=int, default=None)
    sub.add_argument("--resolution", type=float, default=1.0)
    sub.add_argument("--min-weight", type=float, default=0.0)
    _add_common(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = add_parser("synth", help="generate a synthetic bundle")
    sub.add_argument("--n-samples", type=int, default=100)
    sub.add_argument("--n-taxa", type=int, default=60)
    sub.add_argument("--n-blocks", type=int, default=4)
    sub.add_argument("--intra", type=float, default=0.5)
    sub.add_argument("--inter", type=float, default=0.05)
    sub.add_argument("--planted", default=None,
                     help="comma-separated planted indices")
    sub.add_argument("--planted-size", type=int, default=6,
                     help="plant the first N taxa when --planted is absent")
    sub.add_argument("--noise-sigma", type=float, default=0.05)
    _add_common(sub)
    sub.set_defaults(func=cmd_synth)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list) -> list:
    """Load key=value defaults from --config so explicit flags win.

    The file name is read by parsing ``argv`` once, so every spelling that
    argparse accepts counts (``--config FILE``, ``--config=FILE``, a unique
    prefix of ``--config``); usage errors exit here with code 2.
    """
    config = parser.parse_args(argv).config
    if config is None:
        return argv
    path = Path(config)
    if not path.exists():
        raise ParseError(f"config file not found: {path}")
    overrides = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        overrides[key.strip().replace("-", "_")] = value.strip()
    valid = {
        action.dest
        for sub in parser.subcommands.values()
        for action in sub._actions
    }
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ParseError(f"unknown config key(s): {unknown}")
    for sub in parser.subcommands.values():
        updates = {}
        for action in sub._actions:
            if action.dest not in overrides:
                continue
            raw = overrides[action.dest]
            updates[action.dest] = _convert_config_value(path, action, raw)
        if updates:
            sub.set_defaults(**updates)
    return argv


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _convert_config_value(path, action, raw: str):
    """Apply an option's type/choices to a config-file string."""
    if action.nargs == 0 and isinstance(action.const, bool):
        low = raw.lower()
        if low in _TRUE_WORDS:
            return action.const
        if low in _FALSE_WORDS:
            return action.default
        raise ParseError(f"{path}: {action.dest} must be a boolean, got {raw!r}")
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except (TypeError, ValueError):
            raise ParseError(
                f"{path}: bad value for {action.dest}: {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ParseError(
            f"{path}: {action.dest} must be one of "
            f"{sorted(action.choices)}, got {value!r}")
    return value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 3
    except CoresponseError as exc:  # fallback for the base class
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
