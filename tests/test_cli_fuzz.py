"""A fuzz of the CLI surface: group specs and presentation text.

Every case must end in exit code 0 (done) or 2 (refused), never 1 or 3 and
never an exception, within a CPU budget.  Huge arguments must be refused
before anything of their size is allocated, so no case allocates much.
"""

import time
import tracemalloc

from hypothesis import HealthCheck, given, settings, strategies as st

from centra.cli import main

# per case: CPU seconds, and bytes allocated at the peak (tracemalloc sees
# Python objects and numpy buffers)
CPU_BUDGET = 1.0
MEMORY_BUDGET = 32 << 20

FAMILIES = ("cyclic", "abelian", "dihedral", "sd", "q", "xsp", "sym", "alt",
            "psl2", "psl3")

numbers = st.one_of(
    st.integers(-2, 6),                       # small, zero and negative
    st.integers(10**6, 10**18),               # huge
)
# a single number, and a single factor, are listed twice so that they are
# drawn as often as the other shapes together
arguments = st.one_of(
    numbers.map(str),
    numbers.map(str),
    st.lists(numbers, min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.tuples(numbers, st.sampled_from(["p", "p2", "q"])).map(
        lambda t: f"{t[0]},{t[1]}"),
    st.text(",;:-x#@ 0123456789", max_size=6),  # malformed
)
factors = st.builds("{}:{}".format, st.sampled_from(FAMILIES), arguments)
specs = st.one_of(
    factors,
    factors,
    st.lists(factors, min_size=2, max_size=3).map(
        lambda fs: "".join(f"dp:{f};" for f in fs[:-1]) + fs[-1]),
)

# relation tokens over the alphabet {a, b} and an undeclared c; the one huge
# exponent exceeds the relator length bound, so it must be refused before any
# relator is expanded
tokens = st.sampled_from(["a", "b", "c", "(", ")", "[", "]", ",", "^", "-", "=",
                          "1", "2", "3", "^2", "^-1", "^3", " ", "^99999999"])
relations = st.lists(tokens, max_size=12).map("".join)
headers = st.sampled_from(["gens: a b", "gens: a", "gens:", "gens: a a",
                           "gen: a", ""])


def _run(argv: list[str], capsys) -> None:
    tracemalloc.start()
    start = time.process_time()
    try:
        code = main(argv)
        cpu = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code in (0, 2), argv
    assert cpu < CPU_BUDGET, argv
    assert peak < MEMORY_BUDGET, argv


# under the default cap a legitimate group may take up to the 256 MiB storage
# budget; under this one no accepted case comes near the memory budget, and
# huge arguments must still be refused before they allocate.  The default cap
# is pinned by the probes in test_verify_cli.py
@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=specs, command=st.sampled_from(["construct", "check-x"]))
def test_cli_spec_fuzz(spec, command, capsys):
    _run([command, spec, "--order-cap", "5000"], capsys)


# relations that make the group finite (a quotient of C_m x C_n) come first
# under a well-formed header, so every enumeration closes quickly; without
# them a free group would run to the coset limit
@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=headers, lines=st.lists(relations, min_size=1, max_size=3),
       m=st.integers(1, 12), n=st.integers(1, 12))
def test_cli_presentation_fuzz(header, lines, m, n, tmp_path, monkeypatch, capsys):
    finite = {"gens: a b": [f"a^{m} = 1", f"b^{n} = 1", "[a,b] = 1"],
              "gens: a": [f"a^{m} = 1"]}.get(header, [])
    (tmp_path / "fuzz.pres").write_text("\n".join([header, *finite, *lines]) + "\n")
    monkeypatch.chdir(tmp_path)
    _run(["check-x", "presentation:@fuzz.pres"], capsys)
