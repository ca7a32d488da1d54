"""CLI behavior: formats, flags, exit codes, determinism."""

import gc
import hashlib
import json
import random
import subprocess
import sys

import pytest

import trimatch.cli as cli_module
from trimatch import (
    components,
    formats,
    make_hypergraph,
    shadow_graph,
)
from trimatch.cli import main
from trimatch.errors import NotFactorCritical

from conftest import (
    DISCONNECTED,
    disconnected_odd_unions,
    hand_edited,
    hypergraph_union,
    partition_union_hypergraph,
    random_regular_bipartite,
    random_triple_system,
    relabelled,
    rotate_block_ids,
)

TRIPLE = "p hyp 3 3 3\ne 0 1 2\ne 0 1 2\ne 0 1 2\n"
TWO_TRIPLES = (
    "p hyp 6 6 3\n"
    + "e 0 1 2\n" * 3
    + "e 3 4 5\n" * 3
)
QUADS = "p hyp 5 5 4\n" + "".join(
    f"e {' '.join(str(v) for v in range(5) if v != skip)}\n" for skip in range(4, -1, -1)
)
K33 = "p bip 3 3 9\n" + "".join(f"e {a} {b}\n" for a in range(3) for b in range(3))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_triple(tmp_path, capsys):
    f = write(tmp_path, "t.hyp", TRIPLE)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert out == "triangle 0 1 2\n"


def test_solve_json_schema(tmp_path, capsys):
    f = write(tmp_path, "t.hyp", TRIPLE)
    code, out, _ = run(capsys, "solve", f, "--json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj.keys()) == ["kind", "triangle", "pairs", "keep"]
    assert obj["triangle"] == [0, 1, 2] and obj["pairs"] == [] and obj["keep"] is None


def test_solve_disconnected_needs_components(tmp_path, capsys):
    f = write(tmp_path, "two.hyp", TWO_TRIPLES)
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "Disconnected" in err
    code, out, _ = run(capsys, "solve", f, "--components")
    assert code == 0
    assert out == "triangle 0 1 2\ntriangle 3 4 5\n"


@pytest.mark.parametrize("shape", sorted(disconnected_odd_unions()))
def test_solve_refuses_a_disconnected_odd_instance(tmp_path, capsys, shape):
    h = disconnected_odd_unions()[shape]
    f = write(tmp_path, "u.hyp", formats.format_hypergraph(h))
    code, out, err = run(capsys, "solve", f)
    assert (code, out) == (2, "")
    assert err == f"error: Disconnected: {DISCONNECTED}\n"


def test_a_failed_odd_construction_on_a_connected_instance_exits_3(
    tmp_path, capsys, monkeypatch
):
    import trimatch.partition as partition_module

    def refuse(g):
        raise NotFactorCritical("no perfect matching avoiding vertex", witness=0)

    monkeypatch.setattr(partition_module, "_ear_walks", refuse)
    h = random_triple_system(101, 1, require_connected=True)
    f = write(tmp_path, "odd.hyp", formats.format_hypergraph(h))
    code, out, err = run(capsys, "solve", f)
    assert (code, out) == (3, "")
    assert err.startswith("error: InternalError: shadow graph not factor-critical")


def test_solve_components_with_wrong_block_ids_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    views = [make_hypergraph(bg.n_b, bg.adj_a, k=4)
             for bg in (random_regular_bipartite(9, 4, 1), random_regular_bipartite(10, 4, 2))]
    for k, parts in [
        (3, [random_triple_system(9, 1), random_triple_system(10, 2)]),
        (4, views),
    ]:
        h = hypergraph_union(parts)
        f = write(tmp_path, "two.hyp", formats.format_hypergraph(h))
        with monkeypatch.context() as patch:
            rotate_block_ids(patch, h.n, k)
            code, out, err = run(capsys, "solve", f, "--components", "--k", str(k))
        assert code == 3 and out == ""
        assert err.startswith("error: InternalError: constructed certificate failed")


def test_solve_components_json(tmp_path, capsys):
    f = write(tmp_path, "two.hyp", TWO_TRIPLES)
    code, out, _ = run(capsys, "solve", f, "--components", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "components"
    assert [c["triangle"] for c in obj["components"]] == [[0, 1, 2], [3, 4, 5]]


def test_solve_components_k4(tmp_path, capsys):
    two_quads = "p hyp 8 8 4\n" + "e 0 1 2 3\n" * 4 + "e 4 5 6 7\n" * 4
    f = write(tmp_path, "q2.hyp", two_quads)
    code, _, err = run(capsys, "solve", f, "--k", "4")
    assert code == 2 and "Disconnected" in err
    code, out, _ = run(capsys, "solve", f, "--k", "4", "--components")
    assert code == 0
    assert all(line.startswith("pair") for line in out.splitlines())
    assert len(out.splitlines()) == 4


def test_solve_k4_instance(tmp_path, capsys):
    f = write(tmp_path, "q.hyp", QUADS)
    code, out, _ = run(capsys, "solve", f, "--k", "4")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("triangle")) == 1
    assert sum(1 for ln in lines if ln.startswith("pair")) == 1


def test_solve_k_mismatch(tmp_path, capsys):
    f = write(tmp_path, "q.hyp", QUADS)
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "k=4" in err


def test_solve_then_verify_round_trip(tmp_path, capsys):
    instance = write(tmp_path, "i.hyp", TRIPLE)
    code, out, _ = run(capsys, "solve", instance)
    cert = write(tmp_path, "i.cert", out)
    code, out, _ = run(capsys, "verify", instance, cert)
    assert code == 0
    assert out.strip() == "OK"


def test_hand_edited_files_read_as_their_writer_form(tmp_path, capsys):
    """CRLF line ends, a comment line, a blank line and doubled spaces send
    both files through the line loop, which reads what the JSON pass does."""
    text = formats.format_hypergraph(random_triple_system(2001, 3, require_connected=True))
    instance = write(tmp_path, "i.hyp", text)
    edited = write(tmp_path, "edited.hyp", hand_edited(text))
    code, cert, _ = run(capsys, "solve", instance)
    assert code == 0
    assert run(capsys, "solve", edited) == (0, cert, "")
    edited_cert = write(tmp_path, "edited.cert", hand_edited(cert))
    assert run(capsys, "verify", edited, edited_cert) == (0, "OK\n", "")


def test_verify_tampered_certificate(tmp_path, capsys):
    instance = write(tmp_path, "i.hyp", TWO_TRIPLES)
    code, out, _ = run(capsys, "solve", instance, "--components")
    lines = out.splitlines()
    cert = write(tmp_path, "i.cert", "\n".join(lines[:-1]) + "\n")
    code, out, _ = run(capsys, "verify", instance, cert)
    assert code == 1
    assert "cover" in out


def test_verify_size_mismatch(tmp_path, capsys):
    instance = write(tmp_path, "i.hyp", TRIPLE)
    cert = write(tmp_path, "i.cert", "pair 0 9\ntriangle 0 1 2\n")
    code, _, err = run(capsys, "verify", instance, cert)
    assert code == 2


@pytest.mark.parametrize("flags, instance, certificate, message", [
    (["--lu"], K33, "keep 0 0\nkeep 0 1\nkeep 0 2\npair 0 1\n",
     "partition lines in a kept-edge certificate"),
    ([], TRIPLE, "triangle 0 1 2\nkeep 0 0\n", "keep lines in a partition certificate"),
])
def test_verify_refuses_lines_of_the_other_kind(
    tmp_path, capsys, flags, instance, certificate, message
):
    """A certificate that mixes partition and kept-edge lines is bad input,
    refused before any check runs."""
    instance = write(tmp_path, "i.txt", instance)
    cert = write(tmp_path, "i.cert", certificate)
    assert run(capsys, "verify", *flags, instance, cert) == (2, "", f"error: {message}\n")


def test_huge_declared_vertex_count(tmp_path, capsys):
    """Nothing is allocated per declared vertex: `solve` refuses the
    instance and `verify` reports on the certificate, with the messages
    of an ordinary count."""
    instance = write(tmp_path, "huge.hyp", "p hyp 100000000000000000000 0 3\n")
    cert = write(tmp_path, "huge.cert", "triangle 0 1 2\ntriangle 3 4 5\n")
    assert run(capsys, "solve", instance) == (
        2, "", "error: NotRegular: vertex 0 has degree != 3\n"
    )
    assert run(capsys, "verify", instance, cert) == (
        1,
        "blocks do not cover the vertex set (missing [6, 7, 8, 9, 10])\n"
        "triangle (0, 1, 2) is not a hyperedge\n"
        "triangle (3, 4, 5) is not a hyperedge\n",
        "",
    )
    # disjoint blocks that do not cover V: the mate array, n slots, is
    # built only when the blocks are as many vertices as V
    cert = write(tmp_path, "pairs.cert", "pair 1 0\ntriangle 2 3 4\npair 5 6\n")
    assert run(capsys, "verify", instance, cert) == (
        1,
        "blocks do not cover the vertex set (missing [7, 8, 9, 10, 11])\n"
        "triangle (2, 3, 4) is not a hyperedge\n"
        "pair (1, 0) is not inside any hyperedge\n"
        "pair (5, 6) is not inside any hyperedge\n",
        "",
    )


@pytest.mark.parametrize("components", [[], ["--components"]])
def test_huge_declared_vertex_count_below_uniformity_3(tmp_path, capsys, components):
    """`solve --k 0` on a huge count with no hyperedges passes `validate`
    and is refused before anything is built per declared vertex."""
    instance = write(tmp_path, "huge.hyp", "p hyp 100000000000000000000 0 0\n")
    assert run(capsys, "solve", "--k", "0", *components, instance) == (
        2, "", "error: PreconditionViolated: uniformity must be at least 3\n"
    )


def test_gen_triple(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--n", "3")
    assert code == 0
    assert out == TRIPLE


def test_gen_determinism(capsys):
    code, out1, _ = run(capsys, "gen", "--n", "7", "--seed", "42")
    code, out2, _ = run(capsys, "gen", "--n", "7", "--seed", "42")
    assert out1 == out2


def test_gen_bip_k33(capsys):
    code, out, _ = run(capsys, "gen", "--bip", "--n", "3", "--k", "3")
    assert code == 0
    assert out == K33


def test_lu_k33(tmp_path, capsys):
    f = write(tmp_path, "k33.bip", K33)
    code, out, _ = run(capsys, "lu", f, "--k", "3")
    assert code == 0
    assert out == "keep 0 0\nkeep 0 1\nkeep 0 2\n"
    cert = write(tmp_path, "k33.keep", out)
    code, out, _ = run(capsys, "verify", "--lu", f, cert)
    assert code == 0


def test_lu_fano_incidence(tmp_path, capsys, fano_incidence):
    from trimatch.formats import format_bipartite

    f = write(tmp_path, "fano.bip", format_bipartite(fano_incidence))
    code, out, _ = run(capsys, "lu", f, "--k", "3")
    assert code == 0
    assert len(out.splitlines()) == 7
    cert = write(tmp_path, "fano.keep", out)
    code, _, _ = run(capsys, "verify", "--lu", f, cert)
    assert code == 0


def test_lu_irregular_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.bip", "p bip 2 2 3\ne 0 0\ne 0 1\ne 1 0\n")
    code, _, err = run(capsys, "lu", f)
    assert code == 2
    assert "NotRegular" in err


@pytest.mark.parametrize("text, message", [
    ("p bip 2 2 3\ne 0 0\ne 0 1\ne 1 0\n",
     "NotRegular: A-vertex 1 has degree 1, expected 2"),
    ("p bip 3 2 5\ne 0 0\ne 0 1\ne 1 0\ne 1 1\ne 2 0\n",
     "NotRegular: A-vertex 2 has degree 1, expected 2"),
    ("p bip 2 3 4\ne 0 0\ne 0 1\ne 1 0\ne 1 1\n",
     "NotRegular: B-vertex 2 has degree 0, expected 2"),
    ("p bip 0 0 0\n", "NotRegular: empty side"),
    ("p bip 2 0 0\n", "NotRegular: empty side"),
    ("p bip 0 3 0\n", "NotRegular: empty side"),
    ("p bip 2 2 4\ne 0 0\ne 0 1\ne 1 0\ne 1 1\n",
     "PreconditionViolated: degree must be at least 3"),
    (K33, None),
])
def test_lu_without_k_checks_regularity_once(monkeypatch, tmp_path, capsys, text, message):
    """Without --k, `lu` takes the degree of A-vertex 0 (0 for an empty A
    side) and leaves the one regularity check to `lu_subgraph`, which names
    the first irregular vertex or the empty side, as the CLI did when it
    checked first.  Exit codes are unchanged."""
    import trimatch.matching as matching_module
    import trimatch.partition as partition_module

    checks = []
    for module in (partition_module, matching_module):
        def spy(bg, _real=module.require_regular_bipartite):
            checks.append(bg.n_a)
            return _real(bg)

        monkeypatch.setattr(module, "require_regular_bipartite", spy)
    code, out, err = run(capsys, "lu", write(tmp_path, "g.bip", text))
    assert not hasattr(cli_module, "require_regular_bipartite")
    assert len(checks) == 1
    if message is None:
        assert (code, out, err) == (0, "keep 0 0\nkeep 0 1\nkeep 0 2\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_oracle_agreement(tmp_path, capsys, fano):
    from trimatch.formats import format_hypergraph

    f = write(tmp_path, "fano.hyp", format_hypergraph(fano))
    code, out, _ = run(capsys, "oracle", f)
    assert code == 0
    assert "agreement: yes" in out


def test_oracle_on_random_13(tmp_path, capsys):
    from trimatch import random_triple_system
    from trimatch.formats import format_hypergraph

    h = random_triple_system(13, seed=5, require_connected=True)
    f = write(tmp_path, "r13.hyp", format_hypergraph(h))
    code, out, _ = run(capsys, "oracle", f)
    assert code == 0
    assert "agreement: yes" in out


def test_oracle_budget_exit_2(tmp_path, capsys):
    from trimatch import random_triple_system
    from trimatch.formats import format_hypergraph

    h = random_triple_system(17, seed=3, require_connected=True)
    f = write(tmp_path, "big.hyp", format_hypergraph(h))
    code, _, err = run(capsys, "oracle", f)
    assert code == 2
    assert "Budget" in err


@pytest.mark.parametrize(
    "text, error",
    [
        (TWO_TRIPLES, "Disconnected"),
        # disconnected and irregular: validation comes first, as in solve
        ("p hyp 6 4 3\n" + "e 0 1 2\n" * 3 + "e 3 4 5\n", "NotRegular"),
    ],
)
def test_oracle_disconnected_exit_2(tmp_path, capsys, text, error):
    f = write(tmp_path, "two.hyp", text)
    code, out, err = run(capsys, "oracle", f)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}: ")


def test_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "junk.hyp", "p hyp 3 1 3\ne 0 x 2\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "line 2" in err


def test_subprocess_byte_determinism(tmp_path):
    """Identical bytes across separate interpreter runs (fresh hash seeds)."""
    outs = set()
    for rep in range(3):
        r = subprocess.run(
            [sys.executable, "-m", "trimatch", "gen", "--n", "11", "--seed", "7",
             "--connected"],
            capture_output=True,
            check=True,
        )
        outs.add(r.stdout)
    assert len(outs) == 1
    instance = tmp_path / "i.hyp"
    instance.write_bytes(outs.pop())
    solved = set()
    for rep in range(3):
        r = subprocess.run(
            [sys.executable, "-m", "trimatch", "solve", str(instance)],
            capture_output=True,
            check=True,
        )
        solved.add(r.stdout)
    assert len(solved) == 1


# ---------------------------------------------------------------------------
# The cyclic garbage collector is paused for one command
# ---------------------------------------------------------------------------


def cyclic_garbage(capsys, argv):
    """Exit code, stdout and the number of unreachable objects that one
    `main` call leaves, counted with the collector paused around it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = main(argv)
        return code, capsys.readouterr().out, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", ["solve", "verify", "lu"])
def test_cyclic_garbage_of_one_command_does_not_grow_with_the_input(
    tmp_path, capsys, command
):
    """The pause must not hide a leak: what one command leaves for the
    collector is the same at n=101 as at n=2001."""
    counts = []
    for n in (101, 2001):
        if command == "lu":
            text = formats.format_bipartite(random_regular_bipartite(n, 5, 1))
            instance = write(tmp_path, f"b{n}.bip", text)
            argv = ["lu", instance, "--k", "5"]
        else:
            text = formats.format_hypergraph(random_triple_system(n, 1, require_connected=True))
            instance = write(tmp_path, f"i{n}.hyp", text)
            argv = ["solve", instance]
        if command == "verify":
            _, cert, _ = cyclic_garbage(capsys, argv)
            argv = ["verify", instance, write(tmp_path, f"i{n}.cert", cert)]
        code, _, garbage = cyclic_garbage(capsys, argv)
        assert code == 0
        counts.append(garbage)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, argv, expected",
    [
        (TRIPLE, ["solve"], 0),
        (TRIPLE, ["solve", "--k", "x"], 2),  # argparse exits
        ("p hyp 3 1 3\ne 0 x 2\n", ["solve"], 2),  # ValueError
    ],
    ids=["solved", "argparse-exit", "parse-error"],
)
def test_main_pauses_the_collector_and_restores_its_state(
    tmp_path, capsys, monkeypatch, enabled, text, argv, expected
):
    f = write(tmp_path, "t.hyp", text)
    seen = []
    real = cli_module.solve_k_uniform

    def spy(h, k):
        seen.append(gc.isenabled())
        return real(h, k)

    monkeypatch.setattr(cli_module, "solve_k_uniform", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            code = main([argv[0], f, *argv[1:]])
        except SystemExit as exc:
            code = exc.code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert code == expected
    assert seen == ([False] if expected == 0 else [])


def solve_k_cases():
    """(k, hypergraph, componentwise) for `solve --k` with k 4 to 6:
    regular bipartite graphs read as hypergraphs on B (one hyperedge per
    A-vertex), unions of partitions with repeated hyperedges, and unions
    of both whose components interleave their vertex ids."""
    rng = random.Random(2024)
    for k in (4, 5, 6):
        parts = []
        for n_side in range(k, k + 14):
            bg = random_regular_bipartite(n_side, k, 10 * n_side + k)
            parts.append(make_hypergraph(bg.n_b, bg.adj_a, k=k))
        for q in (1, 2, 3, 5, 8):
            parts.append(partition_union_hypergraph(k, q, 100 * q + k, True))
            parts.append(partition_union_hypergraph(k, q, 200 * q + k, False))
        for h in parts:
            connected = len(components(shadow_graph(h)).blocks) == 1
            yield k, h, not connected
        for seed in range(8):
            chosen = rng.sample(parts, 2 + seed % 3)
            yield k, relabelled(hypergraph_union(chosen), rng), True


# SHA-256 over the `solve --k` output of every case of `solve_k_cases`, in order
SOLVE_K_SHA256 = "b6791c9379d2ce1539ffec145b57115bcdd29f179e0feaf3269cfe3af2db431e"


def test_solve_k_certificate_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for i, (k, h, componentwise) in enumerate(solve_k_cases()):
        f = write(tmp_path, f"c{i}.hyp", formats.format_hypergraph(h))
        argv = ["solve", "--k", str(k), f] + (["--components"] if componentwise else [])
        code, out, err = run(capsys, *argv)
        assert code == 0, (i, err)
        digest.update(out.encode("ascii"))
    assert digest.hexdigest() == SOLVE_K_SHA256


def solve_components_k3_cases():
    """3-uniform 3-regular unions for `solve --components`: connected
    triple systems of both parities and partition unions with repeated
    hyperedges, side by side or with the ids dealt out at random, so that
    odd and even components interleave."""
    rng = random.Random(2025)
    parts = [random_triple_system(n, n, require_connected=True) for n in range(3, 31)]
    parts += [partition_union_hypergraph(3, q, 300 + q, True) for q in (1, 2, 3, 5, 8)]
    for seed in range(30):
        union = hypergraph_union(rng.sample(parts, 2 + seed % 4))
        yield union if seed % 3 == 0 else relabelled(union, rng)


# SHA-256 over the `solve --components` output of every case of
# `solve_components_k3_cases`, in order
SOLVE_COMPONENTS_K3_SHA256 = "6f35e9a33edf60ed4098bc3785156db3ca0548280485d2ac64513c798482345f"


def test_solve_components_certificate_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for i, h in enumerate(solve_components_k3_cases()):
        assert len(components(shadow_graph(h)).blocks) > 1
        f = write(tmp_path, f"u{i}.hyp", formats.format_hypergraph(h))
        code, out, err = run(capsys, "solve", "--components", f)
        assert code == 0, (i, err)
        digest.update(out.encode("ascii"))
    assert digest.hexdigest() == SOLVE_COMPONENTS_K3_SHA256
