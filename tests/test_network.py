"""Adjacency handling, network inference and the graph-convolution step."""

import sys
import warnings

import numpy as np
import pytest

from coresponse import _kernels, network
from coresponse.errors import NumericError, ParseError, ValidationError
from coresponse.ingest import AbundanceMatrix
from coresponse.network import (CoOccurrenceNetwork, NetworkInferenceConfig,
                                convolution_operator, convolve, infer_network,
                                load_adjacency, write_adjacency,
                                write_edge_list)
from coresponse.tables import fmt, read_matrix, write_table
from coresponse.utils import exactly_symmetric


def toy_abundance(values):
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    return AbundanceMatrix(values,
                           tuple(f"s{i}" for i in range(n)),
                           tuple(f"t{j}" for j in range(p)))


def convolve_oracle(H, A):
    """Dense triple-loop evaluation of H (D^-1/2 (A+I) D^-1/2)."""
    n, p = H.shape
    At = A + np.eye(p)
    d = At.sum(axis=1)
    op = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            op[i, j] = At[i, j] / np.sqrt(d[i] * d[j])
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for k in range(p):
                acc += H[i, k] * op[k, j]
            out[i, j] = acc
    return out


def adjacency_oracle(net, path, delimiter):
    """The adjacency writer formatting every cell."""
    rows = [[lab, *(fmt(v) for v in net.adjacency[i])]
            for i, lab in enumerate(net.taxon_labels)]
    write_table(path, ["taxon", *net.taxon_labels], rows, delimiter)


def edge_list_oracle(net, path, delimiter):
    """The edge-list writer as a double loop over the upper triangle."""
    rows = []
    p = net.n_taxa
    for i in range(p):
        for j in range(i + 1, p):
            w = net.adjacency[i, j]
            if w > 0:
                rows.append([net.taxon_labels[i], net.taxon_labels[j], fmt(w)])
    write_table(path, ["source", "target", "weight"], rows, delimiter)


def network_checks_oracle(adj, labels):
    """CoOccurrenceNetwork's checks as two abs(A - A^T) passes."""
    if not np.isfinite(adj).all():
        raise ValidationError("adjacency contains non-finite weights")
    if (adj < 0).any():
        raise ValidationError("adjacency contains negative weights")
    if np.abs(adj - adj.T).max(initial=0.0) > network.SYMMETRY_TOL:
        raise ValidationError("adjacency is not symmetric within 1e-12")
    if np.abs(np.diag(adj)).max(initial=0.0) != 0.0:
        raise ValidationError("adjacency has nonzero diagonal entries")
    return adj, tuple(labels)


def load_adjacency_oracle(path, labels):
    """load_adjacency of a matrix file with every copy it used to make:
    the np.ix_ reordering and (A + A^T)/2 whatever the input."""
    labels = tuple(labels)
    file_cols, _, raw = read_matrix(path)
    perm = [file_cols.index(lab) for lab in labels]
    adj = raw[np.ix_(perm, perm)]
    if np.abs(adj - adj.T).max(initial=0.0) > network.SYMMETRY_TOL:
        warnings.warn(f"{path}: asymmetric adjacency symmetrized as (A+A^T)/2")
    adj = (adj + adj.T) / 2.0
    if np.abs(np.diag(adj)).max(initial=0.0) > 0.0:
        warnings.warn(f"{path}: nonzero diagonal zeroed (no self-loops)")
        np.fill_diagonal(adj, 0.0)
    if (adj < 0).any():
        raise ValidationError(f"{path}: negative edge weights are not allowed")
    return network_checks_oracle(adj, labels)


def outcome(fn, *args):
    """((adjacency bits, labels) or the error, the warnings raised) of a
    call that returns a network or an (adjacency, labels) pair."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            if isinstance(result, CoOccurrenceNetwork):
                result = result.adjacency, result.taxon_labels
            adj, labels = result
            result = (adj.view(np.uint64).tolist(), labels)
        except ValidationError as exc:
            result = ("error", str(exc))
    return result, [str(w.message) for w in caught]


#: matrices over taxa (a, b, c) for the exact-symmetry fast paths
FAST_PATH_CASES = {
    "symmetric": [[0, 0.25, 0.5], [0.25, 0, 1 / 3], [0.5, 1 / 3, 0]],
    "asymmetric within 1e-12": [[0, 0.25, 0.5], [0.25 + 1e-13, 0, 0.1],
                                [0.5, 0.1, 0]],
    "asymmetric beyond 1e-12": [[0, 0.4, 0.5], [0.6, 0, 0.1], [0.5, 0.1, 0]],
    "-0.0 against 0.0": [[0, -0.0, 0.5], [0.0, 0, 0.1], [0.5, 0.1, 0]],
    "-0.0 both ways": [[-0.0, -0.0, 0.5], [-0.0, 0, 0.1], [0.5, 0.1, 0]],
    "above max/2": [[0, 1e308, 0.5], [1e308, 0, 0.1], [0.5, 0.1, 0]],
    "max/2 exactly": [[0, sys.float_info.max / 2, 0],
                      [sys.float_info.max / 2, 0, 0], [0, 0, 0]],
    "nan": [[0, np.nan, 0.5], [np.nan, 0, 0.1], [0.5, 0.1, 0]],
    "inf": [[0, np.inf, 0.5], [np.inf, 0, 0.1], [0.5, 0.1, 0]],
    "diagonal": [[0.9, 0.25, 0], [0.25, 0, 0], [0, 0, -0.0]],
    "negative": [[0, -0.2, 0], [-0.2, 0, 0], [0, 0, 0]],
    "below -max/2": [[0, -1e308, 0], [-1e308, 0, 0], [0, 0, 0]],
}


def proportional_taxa(seed=0):
    """b, 2b, b + noise and two noise columns over 80 samples."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(1, 5, size=80)
    return np.column_stack([base, 2 * base, base + rng.normal(0, 0.5, 80),
                            rng.uniform(1, 5, size=(80, 2))])


def twin_taxa(seed=0):
    """Four pairs of identical columns and a column near their sum."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(1, 5, size=(40, 4))
    return np.column_stack([u[:, [0, 0, 1, 1, 2, 2, 3, 3]],
                            u.sum(axis=1) + rng.normal(0, 0.5, 40)])


class TestNetworkType:
    def test_rejects_asymmetric(self):
        A = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            CoOccurrenceNetwork(A, ("a", "b"))

    def test_rejects_nonzero_diagonal(self):
        A = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            CoOccurrenceNetwork(A, ("a", "b"))

    def test_rejects_negative_weight(self):
        A = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ValidationError):
            CoOccurrenceNetwork(A, ("a", "b"))

    def test_rejects_repeated_label(self):
        with pytest.raises(ValidationError, match="repeated taxon label 'b'"):
            CoOccurrenceNetwork(np.zeros((4, 4)), ("a", "b", "c", "b"))


class TestConvolve:
    def test_hand_example(self):
        m = toy_abundance([[1.0, 3.0]])
        net = CoOccurrenceNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]), m.taxon_labels)
        out = convolve(m, net)
        np.testing.assert_allclose(out, [[2.0, 2.0]], rtol=1e-15)

    def test_zero_adjacency_is_identity(self):
        rng = np.random.default_rng(0)
        m = toy_abundance(rng.uniform(0, 5, size=(7, 9)))
        out = convolve(m, CoOccurrenceNetwork(np.zeros((9, 9)),
                                              m.taxon_labels))
        np.testing.assert_array_equal(out, m.values)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 11)
            p = rng.integers(2, 9)
            H = rng.uniform(0, 4, size=(n, p))
            A = rng.uniform(0, 1, size=(p, p))
            A = (A + A.T) / 2
            np.fill_diagonal(A, 0.0)
            net = CoOccurrenceNetwork(A, tuple(f"t{j}" for j in range(p)))
            out = convolve(toy_abundance(H), net)
            np.testing.assert_allclose(out, convolve_oracle(H, A),
                                       atol=1e-12)

    def test_operator_symmetric(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(0, 1, size=(6, 6))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        op = convolution_operator(A)
        np.testing.assert_allclose(op, op.T, atol=1e-15)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(3)
        H = rng.uniform(0, 2, size=(5, 6))
        A = rng.uniform(0, 1, size=(6, 6))
        A = (A + A.T) / 2
        np.fill_diagonal(A, 0.0)
        net = CoOccurrenceNetwork(A, tuple(f"t{j}" for j in range(6)))
        assert (convolve(toy_abundance(H), net) >= 0).all()

    def test_zero_fill_through_neighbors(self):
        # a zero entry becomes positive exactly when a positively weighted
        # neighbor has nonzero abundance
        H = np.array([[0.0, 5.0, 0.0]])
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 0.8
        m = toy_abundance(H)
        net = CoOccurrenceNetwork(A, m.taxon_labels)
        out = convolve(m, net)[0]
        assert out[0] > 0.0  # filled in from its neighbor
        assert out[2] == 0.0  # isolated taxon stays zero

    def test_dimension_mismatch(self):
        m = toy_abundance(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            convolve(m, CoOccurrenceNetwork(np.zeros((2, 2)), ("a", "b")))


class TestAdjacencyIO:
    def test_matrix_round_trip(self, tmp_path):
        A = np.array([[0.0, 0.25], [0.25, 0.0]])
        net = CoOccurrenceNetwork(A, ("a", "b"))
        path = tmp_path / "adj.csv"
        write_adjacency(net, path)
        again = load_adjacency(path, ("a", "b"))
        np.testing.assert_array_equal(again.adjacency, A)

    def test_matrix_reordered_to_labels(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,b,a\nb,0,0.5\na,0.5,0\n")
        net = load_adjacency(path, ("a", "b"))
        assert net.adjacency[0, 1] == 0.5

    def test_edge_list(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("source,target,weight\nt1,t2,0.5\n")
        net = load_adjacency(path, ("t1", "t2", "t3"))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.5
        np.testing.assert_array_equal(net.adjacency, expected)

    def test_edge_list_round_trip(self, tmp_path):
        A = np.zeros((3, 3))
        A[0, 2] = A[2, 0] = 0.75
        net = CoOccurrenceNetwork(A, ("x", "y", "z"))
        path = tmp_path / "edges.csv"
        write_edge_list(net, path)
        again = load_adjacency(path, ("x", "y", "z"))
        np.testing.assert_array_equal(again.adjacency, A)

    def test_asymmetric_matrix_averaged_with_warning(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b\na,0,0.4\nb,0.6,0\n")
        with pytest.warns(UserWarning, match="symmetriz"):
            net = load_adjacency(path, ("a", "b"))
        assert net.adjacency[0, 1] == 0.5

    def test_diagonal_zeroed_with_warning(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b\na,0.9,0\nb,0,0\n")
        with pytest.warns(UserWarning, match="diagonal"):
            net = load_adjacency(path, ("a", "b"))
        assert net.adjacency[0, 0] == 0.0

    def test_negative_weight_rejected(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b\na,0,-0.2\nb,-0.2,0\n")
        with pytest.raises(ValidationError):
            load_adjacency(path, ("a", "b"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b,c\na,0,1,0\nb,1,0,x7\nc,0,x7,0\n")
        with pytest.raises(ParseError) as exc:
            load_adjacency(path, ("a", "b", "c"))
        assert str(exc.value) == (
            f"{path}: non-numeric cell 'x7' at row 3, column 4")

    def test_writers_match_per_cell_writers(self, tmp_path):
        rng = np.random.default_rng(14)
        p = 9
        upper = np.triu(rng.uniform(0, 1, size=(p, p)), k=1)
        upper[upper < 0.5] = 0.0
        upper[0, 3] = -0.0
        upper[1, 4] = 5e-324
        upper[2, 5] = 1e-300
        upper[3, 6] = 1e300
        upper[4, 8] = 0.123456789012345
        A = upper + upper.T
        A[3, 0] = -0.0
        A[5, 5] = -0.0
        net = CoOccurrenceNetwork(A, tuple(f"t{j}" for j in range(p)))
        for delim in (",", "\t"):
            write_adjacency(net, tmp_path / "adj.csv", delim)
            adjacency_oracle(net, tmp_path / "adj_oracle.csv", delim)
            assert ((tmp_path / "adj.csv").read_bytes()
                    == (tmp_path / "adj_oracle.csv").read_bytes())
            write_edge_list(net, tmp_path / "e.csv", delimiter=delim)
            edge_list_oracle(net, tmp_path / "e_oracle.csv", delim)
            assert ((tmp_path / "e.csv").read_bytes()
                    == (tmp_path / "e_oracle.csv").read_bytes())
        text = (tmp_path / "adj.csv").read_text()
        assert "\t-0\t" in text and "\t1e+300\t" in text

    def test_repeated_matrix_label_rejected(self, tmp_path):
        # the second 'a' row would otherwise overwrite the first
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b,a\na,0,1,0\nb,1,0,2\na,0,2,0\n")
        with pytest.raises(ValidationError, match="repeated taxon label 'a'"):
            load_adjacency(path, ("a", "b"))

    def test_edge_list_options_are_keywords(self, tmp_path):
        net = CoOccurrenceNetwork(np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(TypeError):
            write_edge_list(net, tmp_path / "e.csv", 0.5)

    def test_label_mismatch_lists_names(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,q\na,0,0\nq,0,0\n")
        with pytest.raises(ValidationError, match="q"):
            load_adjacency(path, ("a", "b"))


class TestExactSymmetryFastPaths:
    """load_adjacency and CoOccurrenceNetwork skip the (A + A^T)/2 copy
    and the abs(A - A^T) passes only where they change nothing: the
    arrays, warnings and errors equal those of the full passes."""

    @pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
    @pytest.mark.parametrize("order", ["abc", "cab"])
    def test_load_adjacency_matches_full_passes(self, tmp_path, case, order):
        A = np.array(FAST_PATH_CASES[case])
        perm = ["abc".index(lab) for lab in order]
        path = tmp_path / "adj.csv"
        rows = [[lab, *(repr(float(v)) for v in A[i, perm])]
                for lab, i in zip(order, perm)]
        write_table(path, ["taxon", *order], rows)
        assert (outcome(load_adjacency, path, "abc")
                == outcome(load_adjacency_oracle, path, "abc"))

    @pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
    def test_network_checks_match_full_passes(self, case):
        A = np.array(FAST_PATH_CASES[case])
        assert (outcome(CoOccurrenceNetwork, A, "abc")
                == outcome(network_checks_oracle, A, "abc"))

    def test_cases_take_both_paths(self):
        taken = {case: exactly_symmetric(np.array(A))
                 for case, A in FAST_PATH_CASES.items()}
        assert taken["symmetric"] and taken["-0.0 both ways"]
        assert taken["max/2 exactly"]
        assert not any(taken[case] for case in (
            "asymmetric within 1e-12", "asymmetric beyond 1e-12",
            "-0.0 against 0.0", "above max/2", "nan", "inf"))

    def test_labels_in_order_keep_the_parsed_array(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "adj.csv"
        path.write_text("taxon,a,b\na,0,0.5\nb,0.5,0\n")
        parsed = []

        def reader(path):
            cols, rows, raw = read_matrix(path)
            parsed.append(raw)
            return cols, rows, raw

        monkeypatch.setattr(network, "read_matrix", reader)
        assert load_adjacency(path, ("a", "b")).adjacency is parsed[-1]
        assert load_adjacency(path, ("b", "a")).adjacency is not parsed[-1]


class TestInferenceConfig:
    @pytest.mark.parametrize("field", ["mu1", "mu2", "tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            NetworkInferenceConfig(**{field: value})

    def test_positional_arguments_rejected(self):
        # a positional third value must not silently become the tolerance
        with pytest.raises(TypeError):
            NetworkInferenceConfig(0.1, 0.01, 500)


class TestInferNetwork:
    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(10)
        base = rng.uniform(1, 5, size=200)
        noise = rng.uniform(1, 5, size=(200, 2))
        values = np.column_stack([base, base, noise])
        m = toy_abundance(values)
        net = infer_network(m, NetworkInferenceConfig(mu1=0.0, mu2=0.0))
        assert net.adjacency[0, 1] > 0.9
        assert net.adjacency[0, 1] == net.adjacency[1, 0]

    def test_total_shrinkage(self):
        rng = np.random.default_rng(11)
        m = toy_abundance(rng.uniform(0, 3, size=(50, 5)))
        net = infer_network(m, NetworkInferenceConfig(mu1=1e3, mu2=0.0))
        assert np.array_equal(net.adjacency, np.zeros((5, 5)))

    def test_independent_columns_near_zero(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            m = toy_abundance(rng.lognormal(0, 1, size=(500, 6)))
            net = infer_network(m, NetworkInferenceConfig(mu1=0.1, mu2=0.01))
            assert net.adjacency.max(initial=0.0) < 0.1

    def test_output_is_valid_network(self):
        rng = np.random.default_rng(13)
        m = toy_abundance(rng.lognormal(0, 1, size=(60, 7)))
        net = infer_network(m)
        # construction re-runs all invariant checks
        assert isinstance(net, CoOccurrenceNetwork)
        assert net.taxon_labels == m.taxon_labels

    def test_proportional_taxa_converge_at_default_penalties(self):
        # coordinate descent crawls along the collinear pair b, 2b; the
        # exact finish splits the weight between them
        net = infer_network(toy_abundance(proportional_taxa()))
        W = net.adjacency
        assert W[0, 1] > 0.4
        assert W[0, 2] > 0.1
        assert W[1, 2] == pytest.approx(W[0, 2], rel=1e-9)

    def test_singular_support_names_column_and_mu2(self):
        with pytest.raises(NumericError, match=r"'t8'.*--mu2 > 0"):
            infer_network(toy_abundance(twin_taxa()),
                          NetworkInferenceConfig(mu1=0.01, mu2=0.0))
        # the ridge term makes the same problem well posed
        infer_network(toy_abundance(twin_taxa()),
                      NetworkInferenceConfig(mu1=0.01, mu2=0.01))

    def test_unsettled_column_is_named(self, monkeypatch):
        # finish from an empty support with one round allowed; the first
        # active column is t1 because t0 is constant
        finish = _kernels.enet_kkt_finish

        def one_round(gram, B0, mu1, mu2, tol):
            return finish(gram, np.zeros_like(B0), mu1, mu2, tol, 1)

        monkeypatch.setattr(network, "enet_kkt_finish", one_round)
        values = proportional_taxa()
        values[:, 0] = 1.0
        with pytest.raises(NumericError, match="did not converge on column 't1'"):
            infer_network(toy_abundance(values))
