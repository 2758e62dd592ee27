"""File-driven command line interface.

Every subcommand reads declared inputs and writes its outputs plus a
``resolved_config.txt`` snapshot into ``--out``.  The commands that draw
random numbers derive them all from ``--seed``, and the searching commands
take a ``--threads`` cap, so reruns with the same configuration are
byte-identical at any thread count.  Options may also come from a plain
``key=value`` config file; explicit flags win.

Exit codes: 0 success, 2 usage, 3 missing file, else the raised error
class's ``exit_code`` (``errors.py``): 3 parse, 4 validation, 5 numeric.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analytics import (centralities, locate_group, louvain, write_annotated_graph,
                        write_centralities, write_clusters, write_location)
from .errors import CoresponseError, ParseError, ValidationError
from .evaluation import (convolved_matrix, evaluate_method, write_reports,
                         write_t_tests)
from .ga import OptimizerConfig
from .importance import (DISPLAY_THRESHOLD, discover_importance,
                         read_importance, write_group_network)
from .ingest import (ORIENTATIONS, css_normalize, filter_sparse_taxa,
                     load_abundance, load_function, write_abundance,
                     write_function)
from .model_select import (DEFAULT_MU_GRID, mu_sweep, sweep_k, write_sweep)
from .network import (NetworkInferenceConfig, infer_network, load_adjacency,
                      write_adjacency, write_edge_list)
from .synth import SynthSpec, generate, write_bundle
from .tables import fmt, read_text, write_table
from .utils import child_int

FORMAT_VERSION = 1

_DELIMITERS = {"comma": ",", "tab": "\t"}

#: the default ``--mu-grid``, which parses back to DEFAULT_MU_GRID bit for bit
_MU_GRID = ",".join(map(repr, DEFAULT_MU_GRID))


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


def _parse_list(text: str, kind, flag: str) -> tuple:
    """The non-blank items of a comma list, each converted by ``kind``."""
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ParseError(f"bad {flag} value: {exc}") from None


def _ga_config(args, **penalty) -> OptimizerConfig:
    return OptimizerConfig(
        population_size=args.population_size,
        max_generations=args.max_generations,
        stagnation_limit=args.stagnation_limit,
        seed=args.seed,
        **penalty,
    )


def _search_config(args, capped: bool):
    """The config of a capped (``--k``) or an l1 search, and the grid to tune
    mu over when an l1 search has no fixed ``--mu`` (else None)."""
    if capped:
        return _ga_config(args, k_opt=args.k), None
    if args.mu is not None:
        return _ga_config(args, mu=args.mu), None
    grid = _parse_list(args.mu_grid, float, "--mu-grid")
    if not grid:
        raise ParseError("--mu-grid must list at least one value")
    return _ga_config(args), grid


def _load_dataset(args):
    abundance = load_abundance(args.abundance)
    function = load_function(args.function, abundance)
    return abundance, function


def _check_size(flag: str, k: int, n_taxa: int) -> None:
    """Reject a size flag outside 1..n_taxa before any search runs; a cap
    past the taxon count would repeat the all-taxa search."""
    if k < 1:
        raise ValidationError(f"{flag} must be >= 1")
    if k > n_taxa:
        raise ValidationError(f"{flag} {k} exceeds the {n_taxa} taxa")


def _load_network(args, abundance):
    if args.no_graph:
        return None
    if args.adjacency is None:
        raise ValidationError("either --adjacency or --no-graph is required")
    return load_adjacency(args.adjacency, abundance.taxon_labels)


def cmd_ingest(args, out, delim) -> None:
    abundance = load_abundance(args.abundance, args.orientation)
    abundance = filter_sparse_taxa(abundance, args.max_zero_fraction)
    abundance = css_normalize(abundance, args.css_quantile, args.css_scale)
    function = load_function(args.function, abundance)
    write_abundance(abundance, out / "abundance_normalized.csv", delim)
    write_function(function, abundance.sample_ids,
                   out / "function_aligned.csv", delim)


def cmd_infer_net(args, out, delim) -> None:
    abundance = load_abundance(args.abundance)
    cfg = NetworkInferenceConfig(mu1=args.mu1, mu2=args.mu2)
    net = infer_network(abundance, cfg)
    write_adjacency(net, out / "adjacency.csv", delim)
    write_edge_list(net, out / "edge_list.csv", delimiter=delim)


def cmd_select_k(args, out, delim) -> None:
    abundance, function = _load_dataset(args)
    _check_size("--k-max", args.k_max, abundance.n_taxa)
    if not 1 <= args.k_min <= args.k_max:
        raise ValidationError("--k-min must lie in 1..--k-max, got "
                              f"{args.k_min} with --k-max {args.k_max}")
    M = convolved_matrix(abundance, _load_network(args, abundance))
    result = sweep_k(M, function.values, (args.k_min, args.k_max),
                     args.repeats, _ga_config(args), threads=args.threads)
    write_sweep(result, out / "sweep.csv", delim)
    write_table(out / "sweep_summary.csv", ["k", "mean_aic"],
                [[str(k), fmt(mean)] for k, _, mean in result.per_k], delim)
    (out / "chosen_k.txt").write_text(f"{result.chosen_k}\n", encoding="utf-8")


def cmd_discover(args, out, delim) -> None:
    if not math.isfinite(args.display_threshold):
        raise ValidationError("--display-threshold must be finite")
    abundance, function = _load_dataset(args)
    capped = args.mode == "size_cap"
    if capped:
        if args.k is None:
            raise ValidationError("size_cap mode needs --k (run select-k first)")
        _check_size("--k", args.k, abundance.n_taxa)
    if args.top_k is not None:
        _check_size("--top-k", args.top_k, abundance.n_taxa)
    cfg, grid = _search_config(args, capped)
    M = convolved_matrix(abundance, _load_network(args, abundance))
    if grid is not None:
        mu = mu_sweep(M, function.values, grid,
                      replace(cfg, seed=child_int(args.seed, 1)),
                      threads=args.threads).chosen_mu
        cfg = _ga_config(args, mu=mu)

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
        # the settings the search used: a cap or an l1 penalty
        ["k", "" if cfg.k_opt is None else str(cfg.k_opt)],
        ["mu", "" if cfg.k_opt is not None else fmt(cfg.mu)],
        ["top_k", str(report.top_k)],
        ["top_group_r", fmt(report.top_group_r)],
    ]
    write_table(out / "discovery_summary.csv", ["key", "value"], summary, delim)


_METHOD_TAGS = ("baseline", "baseline_l1", "convolved", "convolved_l1")


def cmd_evaluate(args, out, delim) -> None:
    abundance, function = _load_dataset(args)
    methods = _parse_list(args.methods, str.strip, "--methods")
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
    if capped:
        if args.k is None:
            raise ValidationError(
                f"method(s) {capped} need --k (run select-k first)")
        _check_size("--k", args.k, abundance.n_taxa)
    graph_methods = [tag for tag in methods if not tag.startswith("baseline")]
    if graph_methods and args.adjacency is None:
        raise ValidationError(
            f"method(s) {graph_methods} need a network: pass --adjacency")
    net = (load_adjacency(args.adjacency, abundance.taxon_labels)
           if graph_methods else None)
    # the searched matrix of each graph, convolved once; the network is
    # dropped before the searches
    matrices = {baseline: convolved_matrix(abundance, None if baseline else net)
                for baseline in dict.fromkeys(tag.startswith("baseline")
                                              for tag in methods)}
    del net

    reports = []
    for tag in methods:
        # evaluate_method tunes mu on every training set when given a grid
        cfg, grid = _search_config(args, not tag.endswith("_l1"))
        reports.append(evaluate_method(
            matrices[tag.startswith("baseline")], function.values, cfg,
            args.repeats, method_tag=tag, fraction=args.fraction,
            n_strata=args.strata,
            mu_grid=grid, inner_repeats=args.inner_repeats,
            threads=args.threads))

    write_reports(reports, out / "per_repeat.csv", out / "summary.csv", delim)
    if len(reports) > 1:
        write_t_tests(reports, out / "ttest.csv", delim)


def cmd_analyze(args, out, delim) -> None:
    if not math.isfinite(args.min_weight):
        raise ValidationError("--min-weight must be finite")
    labels, ivec, mra = read_importance(args.importance)
    if args.top_k is not None:
        _check_size("--top-k", args.top_k, len(labels))

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


def cmd_synth(args, out, delim) -> None:
    planted = (_parse_list(args.planted, int, "--planted") if args.planted
               else tuple(range(args.planted_size)))
    spec = SynthSpec(
        n_samples=args.n_samples, n_taxa=args.n_taxa, n_blocks=args.n_blocks,
        intra_block_weight=args.intra, inter_block_weight=args.inter,
        planted_group=planted, noise_sigma=args.noise_sigma, seed=args.seed,
    )
    write_bundle(generate(spec), out, delim)


def _add_common(sub) -> None:
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None,
                     help="key=value file; flags override it")
    sub.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="comma")


def _add_ga_options(sub) -> None:
    sub.add_argument("--population-size", type=int, default=200)
    sub.add_argument("--max-generations", type=int, default=500)
    sub.add_argument("--stagnation-limit", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker cap; results do not depend on it")


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
                     choices=ORIENTATIONS)
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
    sub.add_argument("--mu-grid", default=_MU_GRID)
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
    sub.add_argument("--methods", default="baseline,convolved")
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--mu", type=float, default=None)
    sub.add_argument("--mu-grid", default=_MU_GRID)
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
    sub.add_argument("--seed", type=int, default=0, help="master seed")
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
    sub.add_argument("--seed", type=int, default=0, help="master seed")
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
        sub.set_defaults(**{
            action.dest: _convert_config_value(path, action,
                                               overrides[action.dest])
            for action in sub._actions if action.dest in overrides})
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
        if getattr(args, "threads", 1) < 1:
            raise ValidationError("--threads must be >= 1")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out, _DELIMITERS[args.delimiter])
        _snapshot(args, out)
    except CoresponseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
