"""Global constraint store: a scope tree over a register array plus a
linear store.

Scope nodes are created by `exists` agents and procedure calls and form a
tree; `lookup` walks from a node toward the root but stops at the first
procedure-call node after checking it, so a called body sees its formals
and locals only. Registers hold stream structure: an unbound cell is
rewritten in place to a functor when first told a cons cell, with its
head and tail freshly allocated at adjacent positions. Numeric variables
become DiscreteVar cells pointing at linear-store dimensions; dimensions
are allocated lazily, on first use in a linear constraint.

Tells, asks and call actuals have one calling convention: a code and
its environment, the tuple of the registers of the names in scope, one
per slot. A code is compiled over `slots`, a dict from each name in
scope to its slot (an inner name shadows an outer equal one). A term
compiles to None for `_`, a variable's slot, a constant's cell, or
("cons", head, tail, the slots of the variables under it); a constraint
to (STREAM, slot, term), (LIN, op, ((slot, coef), ...), const) for `sum
coef * var + const op 0`, or (TRUE,); an actual parameter to a slot, a
cell or a LIN code.

Stores are stepped through snapshots: each thread of one time instant
executes on its own branch. Every store of one run shares one `Base`:
the allocation counters, which keep register and dimension indices
disjoint so that they survive the merge verbatim, the base list of
registers, and the run's one list of scope nodes. A node is made whole
and never changed, so `add_scope` appends it at its id, and a store sees
the first `n_nodes`. A store reads its own register writes, then the
view that its parent had at the branch, then the base. Branching is
O(1): a parent builds its view at most once between two of its own
writes, and its branches share it. Merging reads only the siblings' own
writes: siblings that changed nothing drop out, the first writer is
adopted in O(its own writes), and each other writer's own writes are
replayed onto it through unification; a clash (atom vs number, structure
vs numeric, occurs cycle) latches the whole store inconsistent.

Only `seal()` writes the base list of registers: it folds the view into
it in place, in O(this instant's changes), and so invalidates every other
store over the same base, the sealed store's own ancestors and siblings
included. A store that must outlive the next seal is copied first with
`frozen()`, which costs O(store).
"""

from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import ast
from .errors import UnknownSymbolError
from .linear import (
    dump_lin, ls_add, ls_entails, ls_grow, ls_is_empty, ls_meet, ls_new, row,
)

UNBOUND = ("unbound",)

ROOT, EXISTS, PROC_CALL = "root", "exists", "proc_call"


def const_cell(value):
    return ("const", value)


def ref_cell(target):
    return ("ref", target)


def dvar_cell(dim):
    return ("dvar", dim)


def functor_cell(head):
    # tail lives at head + 1
    return ("functor", head)


def _leaf_rule(ca, cb):
    """The const/dvar rule for two bound cells that are not both functors:
    True when they are equal, False on a clash, else the linear row that
    their equality needs."""
    if ca[0] == "const" and cb[0] == "const":
        return ca[1] == cb[1]
    if ca[0] == "dvar" and cb[0] == "dvar":
        return row("=", {ca[1]: 1, cb[1]: -1}, 0)
    if ca[0] == "const":
        ca, cb = cb, ca
    if ca[0] == "dvar" and cb[0] == "const" and not isinstance(cb[1], str):
        return row("=", {ca[1]: 1}, -cb[1])
    return False


TRUE, STREAM, LIN = "true", "stream", "lin"


def _term(t, slots):
    done, todo = [], [t]
    while todo:  # children first, from an explicit stack
        t = todo.pop()
        if t is None:  # the head and tail of a cons are done
            tail, head = done.pop(), done.pop()
            under = frozenset().union(*[
                (p,) if isinstance(p, int) else p[3] if p and p[0] == "cons"
                else () for p in (head, tail)])
            done.append(("cons", head, tail, under))
        elif isinstance(t, ast.Cons):
            todo += (None, t.tail, t.head)
        elif isinstance(t, ast.Var):
            done.append(slots[t.name])
        elif isinstance(t, ast.Anon):
            done.append(None)
        else:
            done.append(const_cell(
                t.name if isinstance(t, ast.Atom) else t.value))
    return done[0]


def _int(c):  # integral numbers as ints, so that tells sum ints
    return c.numerator if c.denominator == 1 else c


def _linear(op, e, slots):
    return (LIN, op, tuple((slots[n], _int(c)) for n, c in e.coeffs),
            _int(e.const))


def compile_constraint(c, slots):
    """The code of a syntax-tree constraint over `slots`."""
    if isinstance(c, ast.StreamEq):
        return (STREAM, slots[c.var], _term(c.rhs, slots))
    if isinstance(c, ast.Linear):
        return _linear(c.op, c.lhs - c.rhs, slots)
    if isinstance(c, ast.CTrue):
        return (TRUE,)
    raise TypeError(f"bad constraint: {c!r}")


def compile_actual(a, slots):
    """The code of a call's actual parameter over `slots`."""
    if isinstance(a, ast.LinExpr):
        return _linear("=", a, slots)
    return _term(a, slots)


class Base:
    """What every store of one run shares: the counters that keep register
    and dimension indices disjoint, the register list that `seal()` grows
    in place, and the scope nodes, each at its id, that `add_scope`
    appends."""

    __slots__ = ("memory", "scopes", "next_cell", "next_dim")

    def __init__(self):
        self.memory = []
        self.scopes = []
        self.next_cell = 0
        self.next_dim = 0


# one scope: built whole by `Store.add_scope` and never changed
ScopeNode = namedtuple("ScopeNode", "id parent kind label symbols")


def _overlaid(base, delta, size):
    """The delta over the base, `size` slots long, with None where neither
    holds a value; base itself when that is all there is."""
    if not delta and len(base) == size:
        return base
    out = list(base[:size])
    out.extend([None] * (size - len(out)))
    for i, x in delta.items():
        out[i] = x
    return out


def _fold(base, size, *deltas):
    """Write the deltas, in order, into the base list in place."""
    base.extend([None] * (size - len(base)))
    for delta in deltas:
        for i, x in delta.items():
            base[i] = x


class Layer:
    """Read-only view of `memory` as a store sees it, a slot that a sibling
    allocated being None, or of its first `n_nodes` scope nodes (an empty
    delta). Not a list: the benchmark's tracer takes `len` of both on
    every `branch()` (until ROADMAP item 4)."""

    __slots__ = ("base", "delta", "size")

    def __init__(self, base, delta, size):
        self.base = base
        self.delta = delta
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if not 0 <= i < self.size:
            raise IndexError(i)
        x = self.delta.get(i)
        if x is None and i < len(self.base):
            x = self.base[i]
        return x


# A register's document is {"kind": cell[0]} plus, for every kind but
# "unbound", the one field named here, which holds cell[1] (a const's
# number as a string: "42", "-3", "1/2"). `_cell_text` writes it as
# compact JSON, and `_node_text` a scope node's. Differential tests hold
# each text equal to json.dumps of a document built independently.
_CELL_FIELD = {"unbound": None, "const": "value", "dvar": "dim",
               "ref": "to", "functor": "head"}


def _cell_arg(cell):
    v = cell[1]
    if cell[0] == "const" and not isinstance(v, str):
        return ast.pretty_num(v)
    return v


def _cell_text(cell):
    if cell is None:
        return "null"
    field = _CELL_FIELD[cell[0]]
    if field is None:
        return '{"kind":"%s"}' % cell[0]
    arg = _cell_arg(cell)
    return '{"kind":"%s","%s":%s}' % (
        cell[0], field, _json_str(arg) if isinstance(arg, str) else arg)


def _node_text(node):
    return '{"id":%d,"parent":%s,"kind":%s,"label":%s,"symbols":{%s}}' % (
        node.id, "null" if node.parent is None else node.parent,
        _json_str(node.kind), _json_str(node.label),
        ",".join([f"{_json_str(name)}:{idx}"
                  for name, idx in node.symbols.items()]))


class DumpMemo:
    """The text of each register and scope node as `Store.dump(memo)` last
    rendered it, with what the slot held then. A slot is encoded again
    only when it holds another object: cells are immutable tuples and
    scope nodes are never changed once made, so the same object means the
    same text. Kept across the dumps of one run, a dump costs one identity
    check per slot plus the encoding of the slots written since the dump
    before."""

    __slots__ = ("cells", "cell_text", "nodes", "node_text")

    def __init__(self):
        # slot i held cells[i] (nodes[i]) when it was rendered as
        # cell_text[i] (node_text[i]); a None cell is "null"
        self.cells = []
        self.cell_text = []
        self.nodes = []
        self.node_text = []


def _memo_texts(held, text, items, render):
    """The texts of `items`, one per slot, rendering only the slots whose
    object is not the one `held` has; `held` and `text` are updated."""
    k = len(items) - len(held)
    if k > 0:
        held.extend([None] * k)
        text.extend(["null"] * k)
    for i, x in enumerate(items):
        if x is not held[i]:
            held[i] = x
            text[i] = render(x)
    return text[:len(items)]


class Store:
    """One value of the store: own register writes over an inherited view
    over the base that every store of its run shares, and the first
    `n_nodes` of the run's scope nodes (see the module docstring)."""

    __slots__ = ("base", "inherited", "write_log", "view", "n_cells",
                 "n_nodes", "lin", "step_false")

    def __init__(self):
        self.base = Base()
        self.inherited = {}  # the parent's view: read only
        self.write_log = {}  # register index -> cell, written since the branch
        self.view = None  # inherited plus own, once built
        # lengths of memory and scopes as this store sees them, counting
        # slots that only a sibling filled
        self.n_cells = 0
        self.n_nodes = 0
        self.lin = ls_new()
        self.step_false = False

    @staticmethod
    def new(names=()):
        """A store whose root holds one unbound register per name."""
        s = Store()
        s.add_scope(ROOT, None, {name: s.new_cell() for name in names})
        return s

    @property
    def memory(self):
        return Layer(self.base.memory, self._view(), self.n_cells)

    @property
    def scopes(self):
        return Layer(self.base.scopes, {}, self.n_nodes)

    # ------------------------------------------------------------ branches

    def _view(self):
        """The registers inherited under own writes; never changed."""
        if self.view is None:
            self.view = {**self.inherited, **self.write_log}
        return self.view

    def branch(self):
        """Snapshot for one thread/agent of the current instant: no own
        writes over this store's view, which both share and neither
        changes, O(1) once the view is built."""
        s = Store.__new__(Store)
        s.inherited = self.view or self._view()
        s.write_log, s.view = {}, None
        s.base, s.n_cells, s.n_nodes, s.lin, s.step_false = \
            self.base, self.n_cells, self.n_nodes, self.lin, self.step_false
        return s

    def seal(self):
        """Fold the view into the base's registers, in place. Every other
        store over this base reads the result from now on, so none of them
        is valid any more; this one stays valid, with nothing over the
        base."""
        _fold(self.base.memory, self.n_cells, self.inherited, self.write_log)
        self.inherited, self.write_log, self.view = {}, {}, None
        return self

    def frozen(self):
        """A copy that no later seal changes: O(store). It reads like this
        store, over a base of its own that cannot be sealed, with its own
        copy of the scope nodes that it sees."""
        s = self.branch()
        base = s.base = Base()
        base.memory = tuple(_overlaid(self.base.memory, s.inherited,
                                      self.n_cells))
        base.scopes = self.base.scopes[:self.n_nodes]
        base.next_cell, base.next_dim = self.base.next_cell, self.base.next_dim
        s.inherited = {}
        return s

    # ----------------------------------------------------------- low level

    def _set(self, idx, cell):
        self.write_log[idx] = cell
        self.view = None
        if idx >= self.n_cells:
            self.n_cells = idx + 1

    def _alloc_cell(self, cell):
        idx = self.base.next_cell
        self.base.next_cell += 1
        self._set(idx, cell)
        return idx

    def _alloc_dim(self):
        d = self.base.next_dim
        self.base.next_dim += 1
        self.lin = ls_grow(self.lin, d + 1)
        return d

    def _add_row(self, r):
        self.lin = ls_add(ls_grow(self.lin, self.base.next_dim), r)

    def _deref(self, idx):
        """The register at the end of idx's ref chain, and its cell."""
        log, inh, memory = self.write_log, self.inherited, self.base.memory
        cell = log.get(idx) or inh.get(idx) or memory[idx]
        while cell is not None and cell[0] == "ref":
            idx = cell[1]
            cell = log.get(idx) or inh.get(idx) or memory[idx]
        return idx, cell

    def _reaches(self, stack, target):
        """Does any register index or cell value on `stack` reach register
        `target`, the unbound end of a ref chain?"""
        seen = set()
        while stack:
            x = stack.pop()
            if isinstance(x, int):
                x, cell = self._deref(x)  # a chain through target ends there
                if x == target:
                    return True
                if x in seen:
                    continue
                seen.add(x)
                x = cell
            if x is not None and x[0] == "functor":
                stack += (x[1], x[1] + 1)
        return False

    # ------------------------------------------------------------- scopes

    def add_scope(self, kind, parent, symbols, label=""):
        """A new scope node holding `symbols` (name -> register index), the
        dict itself, appended to the run's nodes; returns its id."""
        nid = len(self.base.scopes)
        self.base.scopes.append(ScopeNode(nid, parent, kind, label, symbols))
        self.n_nodes = nid + 1
        return nid

    def new_cell(self):
        """One new unbound register; returns its index."""
        return self._alloc_cell(UNBOUND)

    def lookup(self, scope_id, name):
        scopes = self.base.scopes
        nid = scope_id
        while nid is not None:
            node = scopes[nid]
            if name in node.symbols:
                return node.symbols[name]
            if node.kind == PROC_CALL:
                break  # call boundary: formals and locals only
            nid = node.parent
        raise UnknownSymbolError(name)

    def actual_cell(self, actual, env):
        """The register of a formal whose actual is `actual`, a code from
        `compile_actual` over env: the caller's own register for a
        variable, else a new one."""
        if isinstance(actual, int):
            return env[actual]
        if actual[0] == "const":
            return self._alloc_cell(actual)
        resolved = self._resolve(actual, env, allocate=True)
        d = self._alloc_dim()
        idx = self._alloc_cell(dvar_cell(d))
        if resolved is None:
            self.step_false = True
        else:
            coeffs, const = resolved
            coeffs[d] = coeffs.get(d, 0) - 1
            self._add_row(row("=", coeffs, const))
        return idx

    # -------------------------------------------------------- consistency

    def is_consistent(self):
        return not self.step_false and not ls_is_empty(self.lin)

    # ------------------------------------------------------- unification

    def _unify(self, idx, rhs, env=None):
        """Tell-mode: unify register idx with another register, with a
        cell value other than a ref (merge replay), or, given env, with a
        compiled term over env. The walk keeps an explicit stack and pushes
        tails before heads, so its effects come in the order of a preorder
        walk; a clash latches inconsistency and skips the rest of its cell.
        """
        if env is not None:
            if rhs is None:
                return
            rhs = env[rhs] if isinstance(rhs, int) else rhs
        stack = [(idx, rhs, None)]
        while stack:
            i, t, seen = stack.pop()
            a, ca = self._deref(i)
            b = None
            if isinstance(t, int):
                b, t = self._deref(t)
                if a == b:
                    continue
            elif t[0] == "cons":
                if ca == UNBOUND and not (t[3] and self._reaches(
                        [env[s] for s in t[3]], a)):
                    ca = functor_cell(self._alloc_cell(UNBOUND))
                    self._alloc_cell(UNBOUND)  # tail at head + 1
                    self._set(a, ca)
                if ca[0] != "functor":
                    self.step_false = True
                    continue
                stack += [(h, env[p] if isinstance(p, int) else p, None)
                          for h, p in ((ca[1] + 1, t[2]), (ca[1], t[1]))
                          if p is not None]
                continue
            if ca == UNBOUND:
                if b is not None and t == UNBOUND:
                    self._set(max(a, b), ref_cell(min(a, b)))
                elif t[0] == "functor" and self._reaches([t], a):
                    self.step_false = True
                else:
                    self._set(a, t if b is None else ref_cell(b))
            elif t == UNBOUND:
                if b is None:
                    continue  # a replayed unbound cell adds nothing
                if self._reaches([ca], b):
                    self.step_false = True
                else:
                    self._set(b, ref_cell(a))
            elif ca == t:
                continue
            elif ca[0] == "functor" and t[0] == "functor":
                seen = seen or set()
                key = (a, t[1]) if b is None else (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                stack.append((ca[1] + 1, t[1] + 1, seen))
                stack.append((ca[1], t[1], seen))
            else:
                r = _leaf_rule(ca, t)
                if r is False:
                    self.step_false = True
                elif r is not True:
                    self._add_row(r)

    def _entailed(self, idx, rhs, env):
        """Ask-mode: does the store entail that register idx equals rhs, a
        compiled term over env? Pure; walks like `_unify`."""
        if rhs is None:
            return True
        stack = [(idx, env[rhs] if isinstance(rhs, int) else rhs)]
        seen = set()
        while stack:
            i, t = stack.pop()
            a, ca = self._deref(i)
            if isinstance(t, int):
                b, t = self._deref(t)
                if a == b:
                    continue
            elif t[0] == "cons":
                if ca[0] != "functor":
                    return False
                stack += [(h, env[p] if isinstance(p, int) else p)
                          for h, p in ((ca[1] + 1, t[2]), (ca[1], t[1]))
                          if p is not None]
                continue
            if ca[0] == "functor" and t[0] == "functor":  # t is cell b's
                key = (a, b) if a < b else (b, a)
                if key not in seen:
                    seen.add(key)
                    stack.append((ca[1] + 1, t[1] + 1))
                    stack.append((ca[1], t[1]))
                continue
            r = _leaf_rule(ca, t)
            if r is False or r is not True and not ls_entails(self.lin, r):
                return False
        return True

    # ----------------------------------------------------- linear support

    def _resolve(self, code, env, allocate):
        """A LIN code's ({dim: coef}, const) over env, or None when a
        variable carries no numeric information (or clashes)."""
        coeffs = {}
        const = code[3]
        for slot, c in code[2]:
            idx, cell = self._deref(env[slot])
            if cell == UNBOUND:
                if not allocate:
                    return None
                d = self._alloc_dim()
                self._set(idx, dvar_cell(d))
                coeffs[d] = coeffs.get(d, 0) + c
            elif cell[0] == "dvar":
                coeffs[cell[1]] = coeffs.get(cell[1], 0) + c
            elif cell[0] == "const" and isinstance(cell[1], Fraction):
                const += c * cell[1]
            else:
                return None
        return coeffs, const

    # ------------------------------------------------------- instructions

    def add_constraint(self, c, env):
        """Tell-mode: meet the store with a constraint, a code from
        `compile_constraint` over env."""
        if c[0] == STREAM:
            self._unify(env[c[1]], c[2], env)
        elif c[0] == LIN:
            resolved = self._resolve(c, env, allocate=True)
            if resolved is None:
                self.step_false = True
            else:
                self._add_row(row(c[1], *resolved))

    def entails(self, c, env):
        """Ask-mode: is the constraint, given as to `add_constraint`,
        entailed? Pure - never allocates."""
        if self.step_false or self.lin.empty:
            return True
        if c[0] == STREAM:
            return self._entailed(env[c[1]], c[2], env)
        if c[0] == LIN:
            resolved = self._resolve(c, env, allocate=False)
            return resolved is not None and ls_entails(self.lin,
                                                       row(c[1], *resolved))
        return True

    # -------------------------------------------------------------- merge

    @staticmethod
    def merge(base, locals_):
        """Commit sibling snapshots of one instant, each branched from base,
        onto a new store that holds base's own writes and theirs; base and
        snapshots stay as they were. O(the siblings' own writes): the first
        writer is adopted when replay would not change it, the rest replayed.

        Scope-tree growth survives even when a sibling's constraints clash;
        constraint content is the least upper bound, with stream clashes
        latching inconsistency.
        """
        base_len = base.n_cells
        # a dims-only lin still counts: dims are printed
        writers = [s for s in locals_ if s.write_log
                   or s.n_nodes != base.n_nodes or s.lin is not base.lin
                   or s.step_false != base.step_false]
        # replayed onto base, the first writer gives back its own cells,
        # unless it refs an older register that it also bound: replay binds
        # older registers in index order and would turn that ref around (a
        # thread that ran `tell(Y = a) || tell(X = Y)`, X older)
        first, rest = base, writers
        log = writers[0].write_log if writers else {}
        if writers and not any(c[0] == "ref" and c[1] < base_len
                               and c[1] in log for c in log.values()):
            first, rest = writers[0], writers[1:]
        out = Store.__new__(Store)
        out.inherited, out.view = base.inherited, None
        out.write_log = {**base.write_log, **first.write_log}
        out.base, out.n_cells, out.n_nodes, out.lin, out.step_false = \
            base.base, first.n_cells, first.n_nodes, first.lin, first.step_false
        if rest and any(snap.lin is not base.lin for snap in rest):
            # each lin grew from base.lin
            out.lin = ls_meet(base.lin, [snap.lin for snap in writers
                                         if snap.lin is not base.lin])
        for snap in rest:
            out.step_false = out.step_false or snap.step_false
            out.n_cells = max(out.n_cells, snap.n_cells)
            out.n_nodes = max(out.n_nodes, snap.n_nodes)
            # new registers as they are (allocation keeps indices disjoint
            # across siblings), then older ones, unified in index order
            log = snap.write_log
            out.write_log.update([x for x in log.items() if x[0] >= base_len])
            for idx in sorted([i for i in log if i < base_len]):
                cell = log[idx]
                out._unify(idx, cell[1] if cell[0] == "ref" else cell)
        return out

    # --------------------------------------------------------------- dump

    def counts(self):
        return {"nodes": self.n_nodes, "registers": self.n_cells,
                "dims": self.lin.dims}

    def dump(self, memo=None):
        """The store as `docs/trace.md` describes it, as compact JSON text;
        a register that only a sibling snapshot allocated is rendered as
        null, and scopes are the run's first `n_nodes` nodes. Kept across
        dumps, a `DumpMemo` encodes again only the slots that changed since
        its previous dump."""
        memo = memo or DumpMemo()
        scopes = self.base.scopes[:self.n_nodes]
        memory = _overlaid(self.base.memory, self._view(), self.n_cells)
        return ('{"consistent":%s,"nodes":%d,"registers":%d,"dims":%d,'
                '"scopes":[%s],"memory":[%s],"lin":[%s]}' % (
                    "true" if self.is_consistent() else "false",
                    self.n_nodes, self.n_cells, self.lin.dims,
                    ",".join(_memo_texts(memo.nodes, memo.node_text,
                                         scopes, _node_text)),
                    ",".join(_memo_texts(memo.cells, memo.cell_text,
                                         memory, _cell_text)),
                    ",".join(map(_json_str, dump_lin(self.lin)))))
