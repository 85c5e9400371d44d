"""Command line front end: flags, output formats, exit codes,
and byte-level determinism of the jsonl trace."""

import gc
import hashlib
import json
import subprocess
import sys

from importlib import resources

import pytest

from tccp import interp
from tccp.cli import main
from tccp.errors import UnknownSymbolError
from support import cli_child_env

PHOTOCOPIER = str(resources.files("tccp") / "programs" / "photocopier.tccp")
PHOTOCOPIER_ENTRY = "initialize(MIdle) || tell(MIdle = 5)"


@pytest.fixture
def cli(capsys):
    def call(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err
    return call


@pytest.fixture
def empty_program(tmp_path):
    p = tmp_path / "empty.tccp"
    p.write_text("% no declarations\n")
    return str(p)


@pytest.fixture
def simple_program(tmp_path):
    p = tmp_path / "simple.tccp"
    p.write_text("p(X) :- tell(X = a).\n")
    return str(p)


# ------------------------------------------------------------ happy paths

class TestRun:
    def test_text_format_lists_instants(self, cli, empty_program):
        code, out, err = cli("run", "--program", empty_program,
                             "--entry", "tell(X = 1)", "--steps", "3")
        assert code == 0 and err == ""
        assert out.startswith("-- instant 0 [running]")
        assert "-- instant 1 [quiescent]" in out
        assert "lin: D_0 = 1" in out

    def test_jsonl_lines_parse_and_carry_the_schema(self, cli, empty_program):
        code, out, _ = cli("run", "--program", empty_program,
                           "--entry", "tell(X = 1) || tell(Y = 2)",
                           "--steps", "3", "--format", "jsonl")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2  # quiescent after one instant
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"clock", "status", "agents", "store"}
            assert set(doc["store"]) == {"consistent", "nodes", "registers",
                                         "dims", "scopes", "memory", "lin"}
        first, last = json.loads(lines[0]), json.loads(lines[-1])
        assert first["clock"] == 0 and first["store"]["lin"] == []
        assert last["status"] == "quiescent"
        assert sorted(last["store"]["lin"]) == ["D_0 = 1", "D_1 = 2"]

    def test_zero_steps_prints_only_the_initial_instant(self, cli,
                                                        empty_program):
        code, out, _ = cli("run", "--program", empty_program,
                           "--entry", "tell(X = 1)", "--steps", "0",
                           "--format", "jsonl")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["clock"] == 0

    def test_dump_every_skips_but_keeps_the_final_instant(self, cli,
                                                          tmp_path):
        p = tmp_path / "loop.tccp"
        p.write_text("q(N) :- tell(N = [a | _]) || q(N).\n")
        code, out, _ = cli("run", "--program", str(p), "--entry", "q(X)",
                           "--steps", "10", "--dump-every", "4",
                           "--format", "jsonl")
        assert code == 0
        clocks = [json.loads(l)["clock"] for l in out.strip().split("\n")]
        assert clocks == [0, 4, 8, 10]
        code, out, _ = cli("run", "--program", str(p), "--entry", "q(X)",
                           "--steps", "10", "--dump-every", "0",
                           "--format", "jsonl")
        clocks = [json.loads(l)["clock"] for l in out.strip().split("\n")]
        assert clocks == [10]

    def test_synchronous_visibility_shows_in_the_trace(self, cli,
                                                       empty_program):
        code, out, _ = cli("run", "--program", empty_program,
                           "--entry", "tell(X = a) || ask(X = a) -> tell(Y = b)",
                           "--steps", "6", "--format", "jsonl")
        assert code == 0
        docs = [json.loads(l) for l in out.strip().split("\n")]
        consts = [sorted(c["value"] for c in d["store"]["memory"]
                         if c["kind"] == "const") for d in docs]
        assert consts[0] == []          # nothing lands within the instant
        assert consts[1] == ["a"]       # the tell shows one tick later
        assert consts[2] == ["a"]       # ask fired at 1, body runs at 2
        assert consts[3] == ["a", "b"]
        assert docs[-1]["status"] == "quiescent"


class TestCheckAndStats:
    def test_check_counts_declarations(self, cli, simple_program):
        code, out, _ = cli("check", "--program", simple_program)
        assert code == 0 and out == "ok: 1 declaration\n"

    def test_check_accepts_an_entry(self, cli, simple_program):
        code, _, _ = cli("check", "--program", simple_program,
                         "--entry", "p(Z)")
        assert code == 0

    def test_check_rejects_a_bad_entry(self, cli, simple_program):
        code, _, err = cli("check", "--program", simple_program,
                           "--entry", "q(Z)")
        assert code == 1 and err.startswith("error:")

    def test_stats_of_the_empty_program(self, cli, empty_program):
        code, out, _ = cli("stats", "--program", empty_program,
                           "--entry", "skip", "--steps", "5")
        assert code == 0
        fields = dict(line.rsplit(None, 1) for line in out.strip().split("\n"))
        assert fields["symbol-table nodes"] == "1"
        assert fields["registers"] == "0"
        assert fields["lin dims"] == "0"
        assert fields["status"] == "quiescent"

    def test_stats_on_the_bundled_photocopier(self, cli):
        code, out, _ = cli("stats", "--program", PHOTOCOPIER,
                           "--entry", PHOTOCOPIER_ENTRY, "--steps", "30",
                           "--policy", "last")
        assert code == 0
        fields = dict(line.rsplit(None, 1) for line in out.strip().split("\n"))
        assert fields["instants"] == "30"
        assert fields["lin dims"] == "6"


# ------------------------------------------------------------- exit codes

class TestExitCodes:
    def test_inconsistent_store_exits_two(self, cli, empty_program):
        code, out, _ = cli("run", "--program", empty_program,
                           "--entry", "tell(X = 1) || tell(X = 2)",
                           "--steps", "5", "--format", "jsonl")
        assert code == 2
        last = json.loads(out.strip().split("\n")[-1])
        assert last["status"] == "failed"
        assert last["store"]["consistent"] is False

    def test_syntax_error_exits_one(self, cli, tmp_path):
        p = tmp_path / "bad.tccp"
        p.write_text("p(X) :- tell(X = .\n")
        code, _, err = cli("check", "--program", str(p))
        assert code == 1 and err.startswith("error:")

    def test_scope_error_exits_one(self, cli, tmp_path):
        p = tmp_path / "bad.tccp"
        p.write_text("p(X) :- tell(Y = a).\n")
        code, _, err = cli("check", "--program", str(p))
        assert code == 1 and "Y" in err

    def test_scope_error_names_no_position(self, cli, tmp_path):
        p = tmp_path / "bad.tccp"
        p.write_text("p(X) :- tell(Y = a).\n")
        code, out, err = cli("check", "--program", str(p))
        assert (code, out) == (1, "")
        assert err == "error: unbound variable Y in declaration p\n"

    def test_missing_file_exits_one(self, cli):
        code, _, err = cli("check", "--program", "/nonexistent/f.tccp")
        assert code == 1 and err.startswith("error:")

    def test_a_superscript_digit_is_a_syntax_error(self, cli, tmp_path):
        p = tmp_path / "sup.tccp"
        p.write_text("p :- tell(X = \u00b2).\n", encoding="utf-8")
        assert cli("check", "--program", str(p)) == \
            (1, "", "error: 1:15: expected a token, found '\u00b2'\n")

    @pytest.mark.parametrize("command", [["run", "--steps", "1"], ["check"],
                                         ["stats", "--steps", "1"]],
                             ids=["run", "check", "stats"])
    def test_a_file_that_is_not_utf8_exits_one(self, cli, tmp_path, command):
        p = tmp_path / "latin1.tccp"
        p.write_bytes("% caf\u00e9\n".encode("latin-1"))
        assert cli(*command, "--program", str(p), "--entry", "skip") == \
            (1, "", f"error: {p}: not UTF-8 text: invalid continuation byte"
                    " at byte 5\n")

    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_a_constant_past_4300_digits_is_printed_whole(self, cli, tmp_path,
                                                          fmt):
        # the product has 6000 digits, more than str() converts; it is
        # built from strings, so the test makes no such conversion itself
        p = tmp_path / "big.tccp"
        nines = "9" * 3000
        p.write_text(f"main(X) :- tell(X = {nines} * {nines}).\n")
        code, out, err = cli("run", "--program", str(p), "--entry", "main(X)",
                             "--steps", "2", "--format", fmt)
        assert code == 0 and err == ""
        product = "9" * 2999 + "8" + "0" * 2999 + "1"
        assert f"tell(X = {product})" in out  # the agent
        assert f"D_0 = {product}" in out  # the lin row

    def test_negative_steps_exit_one(self, cli, empty_program):
        code, _, err = cli("run", "--program", empty_program,
                           "--entry", "skip", "--steps", "-1")
        assert code == 1 and "--steps" in err

    def test_negative_dump_every_exit_one(self, cli, empty_program):
        code, out, err = cli("run", "--program", empty_program,
                             "--entry", "skip", "--steps", "1",
                             "--dump-every", "-1")
        assert (code, out) == (1, "")
        assert "--dump-every must be >= 0" in err

    def test_random_policy_requires_a_seed(self, cli, empty_program):
        code, _, err = cli("run", "--program", empty_program,
                           "--entry", "skip", "--steps", "1",
                           "--policy", "random")
        assert code == 1 and "--seed" in err

    def test_seed_outside_random_policy_is_rejected(self, cli,
                                                    empty_program):
        code, _, err = cli("run", "--program", empty_program,
                           "--entry", "skip", "--steps", "1",
                           "--policy", "first", "--seed", "3")
        assert code == 1 and "--seed" in err

    def test_deep_nesting_is_an_error_not_a_traceback(self, tmp_path):
        # a list literal nested 3000 deep, past what the recursive descent
        # can follow; a child process, so the stack depth is the CLI's own
        p = tmp_path / "deep.tccp"
        p.write_text("p(X) :- tell(X = " + "[" * 3000 + "a | _"
                     + "] | _" * 2999 + "]).\n")
        for args in (["check"], ["run", "--entry", "p(Y)", "--steps", "1"]):
            r = subprocess.run([sys.executable, "-m", "tccp.cli", args[0],
                                "--program", str(p), *args[1:]],
                               capture_output=True, text=True,
                               env=cli_child_env(0))
            assert r.returncode == 1, args
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and "nesting" in r.stderr
            assert "Traceback" not in r.stderr

    def test_nesting_at_the_limit_checks_prints_and_runs(self, tmp_path):
        # bisect for the deepest text `check` accepts, in child processes
        # so the stack depth is the CLI's own; at that depth validation,
        # agent printing and execution must not overflow the stack either
        p = tmp_path / "deep.tccp"

        def cli_child(*args):
            return subprocess.run([sys.executable, "-m", "tccp.cli", args[0],
                                   "--program", str(p), *args[1:]],
                                  capture_output=True, text=True,
                                  env=cli_child_env(0))

        shapes = {
            "list": (900, lambda n: "p(X) :- tell(X = " + "[" * n + "a | _"
                     + "] | _" * (n - 1) + "]).\n"),
            "agent": (300, lambda n: "p(X) :- " + "(tell(X = a) || " * n
                      + "skip" + ")" * n + ".\n"),
        }
        for shape, (documented, text) in shapes.items():
            lo, hi = 1, 2048
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                p.write_text(text(mid))
                if cli_child("check").returncode == 0:
                    lo = mid
                else:
                    hi = mid
            assert lo >= documented, shape
            p.write_text(text(lo))
            assert cli_child("check").returncode == 0, shape
            r = cli_child("run", "--entry", "p(Y)", "--steps", "2")
            assert r.returncode in (0, 2), (shape, lo, r.stderr[-300:])
            assert "Traceback" not in r.stderr, (shape, lo)

    def test_an_error_mid_run_prints_no_trace(self, cli, monkeypatch):
        real_step = interp.step

        def step(config, policy, rng):
            if config.clock == 5:
                raise UnknownSymbolError("Late")
            return real_step(config, policy, rng)

        monkeypatch.setattr(interp, "step", step)
        code, out, err = cli("run", "--program", PHOTOCOPIER,
                             "--entry", PHOTOCOPIER_ENTRY, "--steps", "30",
                             "--policy", "last", "--format", "jsonl")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Late" in err

    def test_random_policy_with_seed_runs(self, cli, empty_program):
        code, _, _ = cli("run", "--program", empty_program,
                         "--entry", "ask(true) -> skip + ask(true) -> skip",
                         "--steps", "3", "--policy", "random", "--seed", "9")
        assert code == 0


# ---------------------------------------------------------- determinism

# what `tccp check` and `import tccp` must not load
SIMULATOR = {"tccp.interp", "tccp.store", "tccp.linear", "json", "heapq"}
# the photocopier's jsonl at 30 instants, --policy last, and its sha256
RUN_30 = ["run", "--program", PHOTOCOPIER, "--entry", PHOTOCOPIER_ENTRY,
          "--steps", "30", "--policy", "last", "--format", "jsonl"]
PHOTOCOPIER_30 = \
    "2c90a7d6022f54e62fd3562c1f135eb243b095fa49d19727b715a5d8e2813c74"


def bare_child(*args):
    """`python -S <args>` with cli_child_env(0); -S keeps site's imports out."""
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          env=cli_child_env(0))


class TestStartup:
    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # -S: site would load typing itself and hide the package loading it;
        # the child also reports that it writes no bytecode into the tree
        code = ("import sys, tccp.cli; print(sorted({'dataclasses', "
                "'inspect', 'typing'} & set(sys.modules)), "
                "sys.dont_write_bytecode)")
        r = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, env=cli_child_env(0))
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[] True\n"

    def test_check_loads_no_simulator(self):
        r = bare_child("-X", "importtime", "-m", "tccp.cli", "check",
                       "--program", PHOTOCOPIER, "--entry", PHOTOCOPIER_ENTRY)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"ok: 4 declarations\n"
        loaded = {line.rsplit(b"|", 1)[1].strip().decode()
                  for line in r.stderr.splitlines()[1:]}
        assert "tccp.parser" in loaded
        assert not SIMULATOR & loaded

    def test_parsing_loads_no_simulator(self):
        code = (f"import sys, tccp; tccp.parse_program(open({PHOTOCOPIER!r})"
                f".read(), entry={PHOTOCOPIER_ENTRY!r}); "
                f"print(sorted({SIMULATOR!r} & set(sys.modules)))")
        r = bare_child("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"[]\n"

    def test_simulator_names_load_on_first_use(self):
        code = ("from tccp import *\n"
                "import tccp, tccp.interp as i\n"
                "from tccp import run as r, ChoicePolicy as c\n"
                "print(run is r is tccp.run is i.run, "
                "ChoicePolicy is c is tccp.ChoicePolicy is i.ChoicePolicy, "
                "hasattr(tccp, 'nope'))")
        r = bare_child("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"True True False\n"

    def test_console_script_prints_what_the_module_prints(self):
        script = bare_child(
            "-c", f"import sys, tccp.cli; sys.exit(tccp.cli.main({RUN_30!r}))")
        module = bare_child("-m", "tccp.cli", *RUN_30)
        assert script.returncode == module.returncode == 0, script.stderr
        assert script.stdout == module.stdout
        assert hashlib.sha256(script.stdout).hexdigest() == PHOTOCOPIER_30


class TestExit:
    """`main()` run as the program freezes the collector before it returns;
    `main(argv)` called in process leaves the heap as it was."""

    # an atexit handler registered before main, so it runs after every
    # other one; it reports on stderr whether the heap was frozen
    PROGRAM = ("import atexit, gc, sys\n"
               "atexit.register(lambda: print('frozen:', "
               "gc.get_freeze_count() > 0, file=sys.stderr))\n"
               "sys.argv = ['tccp', *{argv!r}]\n"
               "import tccp.cli\n"
               "sys.exit(tccp.cli.main())\n")

    def test_the_program_exits_frozen_with_the_usual_output(self):
        r = bare_child("-c", self.PROGRAM.format(argv=RUN_30))
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout).hexdigest() == PHOTOCOPIER_30
        assert r.stderr == b"frozen: True\n"

    @pytest.mark.parametrize("argv, code, err", [
        (["check", "--program", "/nonexistent/x.tccp"], 1, b"error: "),
        (["run", "--program", PHOTOCOPIER, "--entry", "skip",
          "--steps", "-1"], 1, b"error: --steps must be >= 0\n"),
        (["check"], 2, b"usage: "),
    ], ids=["missing-file", "bad-usage", "argparse"])
    def test_an_error_exits_frozen_with_its_code(self, argv, code, err):
        r = bare_child("-c", self.PROGRAM.format(argv=argv))
        assert r.returncode == code, r.stderr
        assert r.stdout == b""
        assert r.stderr.startswith(err)
        assert r.stderr.endswith(b"\nfrozen: True\n")

    def test_main_called_with_argv_freezes_nothing(self, cli, empty_program):
        before = gc.get_freeze_count()
        assert cli("check", "--program", PHOTOCOPIER)[0] == 0
        assert cli("run", "--program", empty_program, "--entry", "skip",
                   "--steps", "2")[0] == 0
        assert cli("check", "--program", "/nonexistent/x.tccp")[0] == 1
        assert gc.get_freeze_count() == before


class TestWrappedNames:
    """perfbench/traced.py reads and replaces tccp.cli's simulator names
    before main runs; main must run what it finds there."""

    def test_wrappers_installed_before_main_run(self):
        code = f"""
import sys, tccp.cli as cli
calls = {{"run": 0, "dumps": 0}}
real_run, parse, dumps = cli.run, cli.parse_program, cli.json.dumps

def run(*args, **kwargs):
    calls["run"] += 1
    return real_run(*args, **kwargs)

class Json:
    def dumps(self, *args, **kwargs):
        calls["dumps"] += 1
        return dumps(*args, **kwargs)

cli.run, cli.json = run, Json()
code = cli.main({RUN_30!r})
sys.stdout.flush()
print(calls, parse is cli.parse_program, file=sys.stderr)
sys.exit(code)
"""
        r = bare_child("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stderr == b"{'run': 1, 'dumps': 31} True\n"
        assert hashlib.sha256(r.stdout).hexdigest() == PHOTOCOPIER_30


class TestDeterminism:
    def test_five_runs_byte_identical_jsonl(self):
        argv = [sys.executable, "-m", "tccp.cli", "run",
                "--program", PHOTOCOPIER, "--entry", PHOTOCOPIER_ENTRY,
                "--steps", "30", "--policy", "last", "--format", "jsonl"]
        outs = []
        for i in range(5):
            r = subprocess.run(argv, capture_output=True, env=cli_child_env(i))
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert len(set(outs)) == 1
        assert len(outs[0].strip().split(b"\n")) == 31

    def test_same_seed_same_bytes(self, cli, empty_program):
        entry = ("ask(true) -> tell(X = a) + ask(true) -> tell(X = b)"
                 " + ask(true) -> tell(X = c)")
        runs = set()
        for _ in range(3):
            code, out, _ = cli("run", "--program", empty_program,
                               "--entry", entry, "--steps", "4",
                               "--policy", "random", "--seed", "123",
                               "--format", "jsonl")
            assert code == 0
            runs.add(out)
        assert len(runs) == 1


# ------------------------------------------------------------ byte gate

class TestByteGate:
    """sha256 of the photocopier's jsonl trace under --policy last. The
    digests pin the trace bytes: a change to them is a change of output,
    however it comes about."""

    @pytest.mark.parametrize("steps, every, lines, digest", [
        (30, 1, 31,
         "2c90a7d6022f54e62fd3562c1f135eb243b095fa49d19727b715a5d8e2813c74"),
        (500, 1, 501,
         "2e2110e10c336ebac010e2ecf7696f6c72e8216a3ab295fcddf6fdba3ee55d4e"),
        (500, 7, 73,
         "fdadec2d046a2b806a9312cf9b4b05aa2780708c7225eff36db811a4f911761a"),
        (500, 0, 1,
         "56e62ed720f53b02539753fc0cc61f883cf7f7b7afafd348187a55ec3bcc7c6b"),
    ], ids=["30", "500", "500-every-7", "500-every-0"])
    def test_photocopier_jsonl(self, cli, steps, every, lines, digest):
        code, out, err = cli("run", "--program", PHOTOCOPIER,
                             "--entry", PHOTOCOPIER_ENTRY,
                             "--steps", str(steps), "--policy", "last",
                             "--format", "jsonl", "--dump-every", str(every))
        assert code == 0 and err == ""
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("program, entry, code, lines, digest", [
        # one instant with 300 writers beside each other
        ("w :- exists {xs}, {ts} ({tells}).".format(
            xs=", ".join(f"X{i}" for i in range(300)),
            ts=", ".join(f"T{i}" for i in range(300)),
            tells=" || ".join(f"tell(X{i} = [a | T{i}])" for i in range(300))),
         "w", 0, 3,
         "a242defed8244b6e92e5cf2a4059ec1c51e60e9c7f8eb3e6e8ec173d0413f29b"),
        # nested groups whose siblings bind the same stream cells, each
        # instant, until the shorter stream ends and the two clash
        ("s(X, K, N) :- exists T, H, M ("
         " (tell(X = [H | T]) || (tell(X = [K | _]) || tell(H = K)))"
         " || tell(M = N - 1)"
         " || now (N > 0) then s(T, K, M) else tell(T = nil)).",
         "s(X, a, 6) || s(Y, a, 4) || tell(X = Y)", 2, 8,
         "acf616ab8c0ccb1beed2769195880a62c196a23f6527bdc1beabd678aad79f47"),
        # one thread binds Y and refs X, the older register, to it
        ("p(X, Y) :- tell(Y = a) || tell(X = Y).", "p(X, Y)", 0, 3,
         "1254b2ec8d62c07df0fb3405c32fcda34b7c023568829bb4678ab067e20a1e95"),
        # the same lone writer over an exists, whose register is the
        # parent's own write: it is replayed, not adopted
        ("p(X, Y) :- exists Z (now (Z = c) then skip"
         " else ((tell(Y = a) || tell(X = Y)) || skip)).", "p(X, Y)", 0, 3,
         "a809d3ac8871ca488c9fb525571a7bc950b7594a66b3a7cc8a1392f38c704512"),
        # calls of variables alone beside tells on the same registers, in
        # a group and at top level, after a sibling has branched
        ("r(X, Y, N) :- exists Z, M (tell(X = [N | Y]) || tell(M = N - 1)"
         " || (now (N > 0) then (tell(Y = [M | Z]) || r(Y, Z, M))"
         " else tell(Y = nil))).\n"
         "s(X, Y) :- tell(X = [3 | Y]).\n"
         "t(X, Y) :- s(X, Y).", "r(A, B, 3) || r(C, D, 2) || t(A, B)", 0, 6,
         "4022f5f403737e3984250b7e8db686d0d2d5d7d9522099eda1044fabad955eaa"),
    ], ids=["wide-instant-300", "nested-shared-streams", "ref-to-own-binding",
            "ref-to-own-binding-over-exists", "variable-calls-beside-tells"])
    def test_many_writer_instants_jsonl(self, cli, tmp_path, program, entry,
                                        code, lines, digest):
        path = tmp_path / "p.tccp"
        path.write_text(program + "\n")
        got, out, err = cli("run", "--program", str(path), "--entry", entry,
                            "--steps", "20", "--format", "jsonl")
        assert got == code and err == ""
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_photocopier_text(self, cli):
        code, out, err = cli("run", "--program", PHOTOCOPIER,
                             "--entry", PHOTOCOPIER_ENTRY, "--steps", "200",
                             "--policy", "first", "--format", "text")
        assert code == 0 and err == ""
        assert out.count("-- instant ") == 201
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "03b30cbbdc52a3eb91149a2238c2ced72fe161f987b652b11c4d3b1bd3263757"
