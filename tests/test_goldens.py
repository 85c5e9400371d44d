"""Frozen single-rule traces.

One bundled micro-program per transition rule; the expected trace was
worked out by hand from the step semantics and is compared bit-exact,
full store dumps included. Any drift in allocation order, merge order or
canonical row form shows up here first.
"""

from importlib import resources

import pytest

from tccp.interp import run
from tccp.parser import parse_program
from support import dump_doc

UNB = {"kind": "unbound"}


def root(symbols):
    return {"id": 0, "parent": None, "kind": "root", "label": "",
            "symbols": symbols}


def dump(symbols, memory, lin=(), scopes=None, consistent=True, dims=None):
    scopes = [root(symbols)] + list(scopes or [])
    return {
        "consistent": consistent,
        "nodes": len(scopes),
        "registers": len(memory),
        "dims": dims if dims is not None else 0,
        "scopes": scopes,
        "memory": list(memory),
        "lin": list(lin),
    }


GOLDENS = {
    "rule_tell": {
        "statuses": ["running", "quiescent"],
        "agents": [["tell(X = [a | _])"], []],
        "dumps": [
            dump({"X": 0}, [UNB]),
            dump({"X": 0}, [{"kind": "functor", "head": 1},
                            {"kind": "const", "value": "a"}, UNB]),
        ],
    },
    "rule_ask": {
        "statuses": ["running", "running", "running", "quiescent"],
        "agents": [["tell(X = a) || ask(X = a) -> tell(Y = b)"],
                   ["ask(X = a) -> tell(Y = b)"],
                   ["tell(Y = b)"],
                   []],
        "dumps": [
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
            dump({"X": 0, "Y": 1}, [{"kind": "const", "value": "a"}, UNB]),
            dump({"X": 0, "Y": 1}, [{"kind": "const", "value": "a"}, UNB]),
            dump({"X": 0, "Y": 1}, [{"kind": "const", "value": "a"},
                                    {"kind": "const", "value": "b"}]),
        ],
    },
    "rule_now1": {
        "statuses": ["running", "quiescent"],
        "agents": [["now true then tell(X = on) else tell(X = off)"], []],
        "dumps": [
            dump({"X": 0}, [UNB]),
            dump({"X": 0}, [{"kind": "const", "value": "on"}]),
        ],
    },
    "rule_now2": {
        "statuses": ["running", "quiescent"],
        "agents": [["now true then (ask(X = a) -> skip)"],
                   ["ask(X = a) -> skip"]],
        "dumps": [
            dump({"X": 0}, [UNB]),
            dump({"X": 0}, [UNB]),
        ],
    },
    "rule_now3": {
        "statuses": ["running", "quiescent"],
        "agents": [["now X = a then tell(Y = on) else tell(Y = off)"], []],
        "dumps": [
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
            dump({"X": 0, "Y": 1}, [UNB, {"kind": "const", "value": "off"}]),
        ],
    },
    "rule_now4": {
        "statuses": ["running", "quiescent"],
        "agents": [["now X = a then skip else (ask(Y = b) -> skip)"],
                   ["ask(Y = b) -> skip"]],
        "dumps": [
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
        ],
    },
    "rule_par1": {
        "statuses": ["running", "quiescent"],
        "agents": [["tell(X = 1) || tell(Y = 2)"], []],
        "dumps": [
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
            dump({"X": 0, "Y": 1},
                 [{"kind": "dvar", "dim": 0}, {"kind": "dvar", "dim": 1}],
                 lin=["D_0 = 1", "D_1 = 2"], dims=2),
        ],
    },
    "rule_par2": {
        "statuses": ["running", "quiescent"],
        "agents": [["tell(X = a) || ask(Y = b) -> skip"],
                   ["ask(Y = b) -> skip"]],
        "dumps": [
            dump({"X": 0, "Y": 1}, [UNB, UNB]),
            dump({"X": 0, "Y": 1}, [{"kind": "const", "value": "a"}, UNB]),
        ],
    },
    "rule_hid": {
        "statuses": ["running", "quiescent"],
        "agents": [["exists N (tell(N = 1) || tell(M = N + 1))"], []],
        "dumps": [
            dump({"M": 0}, [UNB]),
            dump({"M": 0},
                 [{"kind": "dvar", "dim": 1}, {"kind": "dvar", "dim": 0}],
                 lin=["D_0 = 1", "D_1 - D_2 = 1", "D_0 - D_2 = 0"],
                 dims=3,
                 scopes=[{"id": 1, "parent": 0, "kind": "exists",
                          "label": "", "symbols": {"N": 1}}]),
        ],
    },
    "rule_proc": {
        "statuses": ["running", "running", "quiescent"],
        "agents": [["p(X)"], ["tell(F = a)"], []],
        "dumps": [
            dump({"X": 0}, [UNB]),
            dump({"X": 0}, [UNB],
                 scopes=[{"id": 1, "parent": 0, "kind": "proc_call",
                          "label": "p", "symbols": {"F": 0}}]),
            dump({"X": 0}, [{"kind": "const", "value": "a"}],
                 scopes=[{"id": 1, "parent": 0, "kind": "proc_call",
                          "label": "p", "symbols": {"F": 0}}]),
        ],
    },
}


def load(name):
    text = (resources.files("tccp") / "programs" / f"{name}.tccp").read_text()
    first = text.splitlines()[0]
    assert first.startswith("% entry:")
    return parse_program(text, entry=first.split(":", 1)[1].strip())


def compare_golden(name):
    expected = GOLDENS[name]
    trace = run(load(name), 5)
    assert [el.status for el in trace] == expected["statuses"]
    assert [list(el.agents) for el in trace] == expected["agents"]
    assert [dump_doc(el.store) for el in trace] == expected["dumps"]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name):
    compare_golden(name)
