"""Fuzz the command line in-process: small and malformed inputs for every subcommand.

Every call must end in exit code 0, 1 or 2; exit 2 must print exactly one
``{"error": ...}`` line on stdout; and no exception may escape ``main``,
except argparse's own ``--help`` exit (code 0, pinned by the help goldens).
Numbers stay small or far past a cap, so each admitted input is quick.
Free-text tokens hold no digit and no path separator, so every file an
example writes lands in the test's temporary directory.
"""

import contextlib
import io
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from motivint.cli import main  # noqa: E402

from helpers import clear_caches  # noqa: E402

HUGE = str(10**30)
# small counts twice as often as the invalid and the refused ones
NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "5", "7"] * 2 + ["-2", "-1", HUGE, "-" + HUGE, "1.5", "x", ""]
)
WORDS = st.text(alphabet="abcxyz-=,.()[]{}:'\" ", max_size=8)

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.sampled_from([10**30, 1.5, "1", "", []])
)
INT_LISTS = st.one_of(
    st.lists(st.integers(-1, 4), max_size=3), JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)
)


@st.composite
def valid_geometries(draw):
    m = draw(st.integers(1, 2))
    f_exp = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    f_exp[draw(st.integers(0, m - 1))] = draw(st.integers(1, 4))
    support = [j + 1 for j, n in enumerate(f_exp) if n]
    return {
        "ambient_dim": m,
        "f_exponents": f_exp,
        "g_exponents": draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        "w_indices": draw(st.lists(st.sampled_from(support), min_size=1, unique=True)),
    }


MALFORMED_GEOMETRIES = st.one_of(
    st.fixed_dictionaries(
        {"ambient_dim": st.integers(1, 3), "f_exponents": INT_LISTS, "w_indices": INT_LISTS},
        optional={"g_exponents": INT_LISTS},
    ),
    st.dictionaries(
        st.sampled_from(["ambient_dim", "f_exponents", "g_exponents", "w_indices", "extra"]),
        st.one_of(JSON_SCALARS, INT_LISTS),
    ),
    st.lists(JSON_SCALARS, max_size=3),
    JSON_SCALARS,
)
MALFORMED_DOCUMENTS = st.one_of(
    MALFORMED_GEOMETRIES.map(json.dumps).map(str.encode),
    st.sampled_from(
        [b"", b"{", b'{"ambient_dim": 1,', b"[" * 5000 + b"]" * 5000, b"nan", b"{}", b"\xff{}"]
    ),
    WORDS.map(str.encode),
)
# two documents in three are valid geometries, so most commands get past parsing
GEOMETRY_DOCUMENTS = st.sampled_from(
    [valid_geometries().map(json.dumps).map(str.encode)] * 2 + [MALFORMED_DOCUMENTS]
).flatmap(lambda documents: documents)
CHARACTERS = st.one_of(
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(-3, 7)),
    st.sampled_from(["0", "1", "1/2", "2/3", "1/0", "a/b", "1/2/3", "0.5", "", "1/" + HUGE]),
)
POLYNOMIALS = st.one_of(
    st.sampled_from(
        ["x", "x^2+y^3", "x*y", "x^2 - 2*y", "x^2+y^2+z^2", "(x+y)^2", "2", "0"] * 2
        + ["", "x^", "x^101", "x^-1", "x**2", "w", "x y", "((((x))))", "9^9^9"]
        + ["(" * 200 + "x" + ")" * 200]
    ),
    st.text(alphabet="xyz+-*^()123", max_size=8),
)
GEOMETRY_FILES = ["a.json", "b.json", "-", "missing.json", "brieskorn(2,3)", "brieskorn(1,2)",
                  "brieskorn(2," + HUGE + ")", "brieskorn(2,3,5)", "brieskorn()"]


@st.composite
def command_lines(draw):
    geometry = st.sampled_from(["a.json", "b.json"] * 4 + GEOMETRY_FILES)
    command = draw(st.sampled_from(
        ["zeta", "exp-series", "measure", "sg", "spectrum", "thom-sebastiani", "padic", "gauss",
         "tokens"]
    ))
    if command == "zeta":
        argv = ["zeta", "--geometry", draw(geometry), "--character", draw(CHARACTERS)]
        if draw(st.booleans()):
            argv += ["--window", draw(NUMBERS), draw(NUMBERS)]
        if draw(st.booleans()):
            argv += ["--display", draw(st.sampled_from(["uv", "lpow", "other"]))]
    elif command in ("exp-series", "measure", "sg", "spectrum"):
        argv = [command, "--geometry", draw(geometry)]
        if command == "measure" and draw(st.booleans()):
            argv += ["--gt", draw(NUMBERS)]
    elif command == "thom-sebastiani":
        argv = [command, "--left", draw(geometry), "--right", draw(geometry)]
        if draw(st.booleans()):
            argv += ["--imax", draw(NUMBERS)]
        if draw(st.booleans()):
            argv.append("--check")
    elif command == "padic":
        prime = st.sampled_from(["3", "5"] * 4 + ["0", "1", "2", "4", "-3", HUGE, "x"])
        argv = ["oracle", "padic", "--poly", draw(POLYNOMIALS), "--prime", draw(prime),
                "--level", draw(st.sampled_from(["-1", "0", "1", "2", HUGE]))]
        if draw(st.booleans()):
            argv += ["--precision", draw(st.sampled_from(["-1", "0", "1", "2", "3", "50"]))]
        if draw(st.booleans()):
            argv += ["--phi", draw(st.sampled_from(["one", "indicator0", "two"]))]
    elif command == "gauss":
        primes = ["3", "5", "7", "11", "13"] * 2 + ["0", "1", "2", "4", "-7", "168", HUGE]
        prime = st.sampled_from(primes)
        argv = ["oracle", "gauss", "--prime", draw(prime)]
    else:
        words = st.one_of(
            WORDS, NUMBERS, st.sampled_from(GEOMETRY_FILES),
            st.sampled_from(["zeta", "exp-series", "measure", "sg", "spectrum", "thom-sebastiani",
                             "oracle", "padic", "gauss", "--geometry", "--left", "--right",
                             "--character", "--window", "--gt", "--imax", "--poly", "--prime",
                             "--level", "--precision", "--output"]),
        )
        return draw(st.lists(words, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        argv += ["--output", draw(st.sampled_from(["out.json", ".", ""]))]
    if draw(st.integers(0, 5)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(WORDS, NUMBERS)))
    return argv


def test_cli_ends_every_input_in_a_documented_exit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    @hypothesis.settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=list(hypothesis.HealthCheck),
    )
    @hypothesis.given(command_lines(), GEOMETRY_DOCUMENTS, GEOMETRY_DOCUMENTS, GEOMETRY_DOCUMENTS)
    def check(argv, doc_a, doc_b, doc_stdin):
        clear_caches()
        (tmp_path / "a.json").write_bytes(doc_a)
        (tmp_path / "b.json").write_bytes(doc_b)
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc_stdin.decode(errors="replace")))
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except SystemExit as exc:  # argparse's --help
            assert exc.code == 0 and out.getvalue().startswith("usage:"), argv
            return
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1, (argv, out.getvalue())
            payload = json.loads(lines[0])
            assert list(payload) == ["error"] and isinstance(payload["error"], str), argv

    check()
