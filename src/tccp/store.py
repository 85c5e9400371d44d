"""Global constraint store: a scope tree over a register array plus a
linear store.

Scope nodes are created by `exists` agents and procedure calls and form a
tree; symbol lookup walks from a node toward the root but stops at the
first procedure-call node after checking it, so a called body sees its
formals and locals only. Registers hold stream structure: an unbound cell
is rewritten in place to a functor when first told a cons cell, with its
head and tail freshly allocated at adjacent positions. Numeric variables
become DiscreteVar cells pointing at linear-store dimensions; dimensions
are allocated lazily, on first use in a linear constraint.

Stores are stepped through snapshots: each thread of one time instant
executes on its own branch. Every store of one run shares one `Base`:
the allocation counters, which keep register, node and dimension indices
disjoint so that they survive the merge verbatim, and the base lists of
registers and scope nodes. Each store adds its own delta: the registers
it wrote and the scope nodes it created. A scope node gets all its
symbols when it is made and is never changed after, so stores, frozen
copies and dump memos share nodes as they are. Reads look in the delta
first, then in the base.
Branching copies the delta only, so it costs O(this instant's changes),
not O(store). Merging replays each branch's writes onto a branch of the
base through unification; a clash (atom vs number, structure vs numeric,
occurs cycle) latches the whole store inconsistent.

Only `seal()` writes the base lists: it folds the delta into them in
place, again in O(this instant's changes), and so invalidates every
other store over the same base, the sealed store's own ancestors and
siblings included. A store that must outlive the next seal is copied
first with `frozen()`, which costs O(store).
"""

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import ast
from .errors import UnboundActualError, UnknownSymbolError
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


class Base:
    """What every store of one run shares: the counters that keep register,
    node and dimension indices disjoint, and the register and scope-node
    lists that `seal()` grows in place."""

    __slots__ = ("memory", "scopes", "next_cell", "next_node", "next_dim")

    def __init__(self):
        self.memory = []
        self.scopes = []
        self.next_cell = 0
        self.next_node = 0
        self.next_dim = 0


class ScopeNode:
    """One scope: built whole by `Store.add_scope` and never changed."""

    __slots__ = ("id", "parent", "kind", "label", "symbols")

    def __init__(self, id, parent, kind, label, symbols):
        self.id = id
        self.parent = parent
        self.kind = kind
        self.label = label
        self.symbols = symbols


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


def _fold(base, delta, size):
    """Write the delta into the base list in place."""
    base.extend([None] * (size - len(base)))
    for i, x in delta.items():
        base[i] = x


class Layer:
    """Read-only view of one array of a store (`memory` or `scopes`), as
    far as the store sees it; a slot that a sibling allocated is None. A
    view, not a list: the benchmark's tracer takes `len` of both on every
    `branch()`, and lists tripled its step time (until ROADMAP item 4)."""

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
# number as a string: "42", "-3", "1/2"). `_cell_doc` builds it and
# `_cell_text` writes it as compact JSON; `_node_doc` and `_node_text` do
# the same for a scope node. Differential tests hold each text equal to
# json.dumps of its document.
_CELL_FIELD = {"unbound": None, "const": "value", "dvar": "dim",
               "ref": "to", "functor": "head"}


def _cell_arg(cell):
    v = cell[1]
    if cell[0] == "const" and not isinstance(v, str):
        return ast.pretty_num(v)
    return v


def _cell_doc(cell):
    if cell is None:
        return None
    field = _CELL_FIELD[cell[0]]
    if field is None:
        return {"kind": cell[0]}
    return {"kind": cell[0], field: _cell_arg(cell)}


def _cell_text(cell):
    if cell is None:
        return "null"
    field = _CELL_FIELD[cell[0]]
    if field is None:
        return '{"kind":"%s"}' % cell[0]
    arg = _cell_arg(cell)
    return '{"kind":"%s","%s":%s}' % (
        cell[0], field, _json_str(arg) if isinstance(arg, str) else arg)


def _node_doc(node):
    if node is None:
        return None
    return {"id": node.id, "parent": node.parent, "kind": node.kind,
            "label": node.label, "symbols": dict(node.symbols)}


def _node_text(node):
    if node is None:
        return "null"
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
        # cell_text[i] (node_text[i]); None is "null"
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
    """One value of the store: a delta over the base that it shares with
    every other store of its run (see the module docstring)."""

    __slots__ = ("base", "write_log", "node_log", "n_cells", "n_nodes",
                 "lin", "step_false")

    def __init__(self):
        self.base = Base()
        self.write_log = {}  # register index -> cell, written since the seal
        self.node_log = {}  # node id -> node, made or changed since the seal
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
        return Layer(self.base.memory, self.write_log, self.n_cells)

    @property
    def scopes(self):
        return Layer(self.base.scopes, self.node_log, self.n_nodes)

    # ------------------------------------------------------------ branches

    def branch(self):
        """Snapshot for one thread/agent of the current instant: this
        store's delta over the same base, O(delta). The two sides share
        the delta's nodes, which nothing changes, and later writes on
        either side stay there."""
        s = Store.__new__(Store)
        s.base = self.base
        s.write_log = self.write_log.copy()
        s.node_log = self.node_log.copy()
        s.n_cells = self.n_cells
        s.n_nodes = self.n_nodes
        s.lin = self.lin
        s.step_false = self.step_false
        return s

    def seal(self):
        """Fold the delta into the base lists, in place. Every other store
        over this base reads the result from now on, so none of them is
        valid any more; this one stays valid, with an empty delta."""
        _fold(self.base.memory, self.write_log, self.n_cells)
        _fold(self.base.scopes, self.node_log, self.n_nodes)
        self.write_log = {}
        self.node_log = {}
        return self

    def frozen(self):
        """A copy that no later seal changes: O(store). It reads like this
        store, over a base of its own that cannot be sealed."""
        s = self.branch()
        base = s.base = Base()
        base.memory = tuple(_overlaid(self.base.memory, self.write_log,
                                      self.n_cells))
        base.scopes = tuple(_overlaid(self.base.scopes, self.node_log,
                                      self.n_nodes))
        base.next_cell = self.base.next_cell
        base.next_node = self.base.next_node
        base.next_dim = self.base.next_dim
        s.write_log = {}
        s.node_log = {}
        return s

    # ----------------------------------------------------------- low level

    def _cell(self, idx):
        return self.write_log.get(idx) or self.base.memory[idx]

    def _set(self, idx, cell):
        self.write_log[idx] = cell
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

    def deref(self, idx):
        log, memory = self.write_log, self.base.memory
        cell = log.get(idx) or memory[idx]
        while cell is not None and cell[0] == "ref":
            idx = cell[1]
            cell = log.get(idx) or memory[idx]
        return idx

    def _reaches(self, stack, target, scope_id=None):
        """Does any cell index, cell value or term on `stack` contain cell
        `target`? Variables in terms are looked up in scope_id."""
        seen = set()
        while stack:
            x = stack.pop()
            if isinstance(x, ast.Var):
                x = self.lookup(scope_id, x.name)
            elif isinstance(x, ast.Cons):
                stack.append(x.tail)
                stack.append(x.head)
                continue
            if isinstance(x, int):
                if x == target:
                    return True
                if x in seen:
                    continue
                seen.add(x)
                x = self._cell(x)
            if not isinstance(x, tuple):
                continue  # an atom, a number, `_` or a hole in memory
            if x[0] == "ref":
                stack.append(x[1])
            elif x[0] == "functor":
                stack.append(x[1])
                stack.append(x[1] + 1)
        return False

    # ------------------------------------------------------------- scopes

    def add_scope(self, kind, parent, symbols, label=""):
        """A new scope node holding `symbols` (name -> register index), the
        dict itself; returns its id."""
        nid = self.base.next_node
        self.base.next_node += 1
        self.node_log[nid] = ScopeNode(nid, parent, kind, label, symbols)
        if nid >= self.n_nodes:
            self.n_nodes = nid + 1
        return nid

    def new_cell(self):
        """One new unbound register; returns its index."""
        return self._alloc_cell(UNBOUND)

    def lookup(self, scope_id, name):
        log, scopes = self.node_log, self.base.scopes
        nid = scope_id
        while nid is not None:
            node = log.get(nid) or scopes[nid]
            if name in node.symbols:
                return node.symbols[name]
            if node.kind == PROC_CALL:
                break  # call boundary: formals and locals only
            nid = node.parent
        raise UnknownSymbolError(name)

    def actual_cell(self, actual, caller_scope):
        """The register of a formal whose actual is `actual`, resolved in
        caller_scope: the caller's own register for a variable, else a
        new one."""
        if isinstance(actual, ast.Var):
            try:
                return self.lookup(caller_scope, actual.name)
            except UnknownSymbolError:
                raise UnboundActualError(actual.name)
        if isinstance(actual, ast.Atom):
            return self._alloc_cell(const_cell(actual.name))
        if isinstance(actual, ast.Num):
            return self._alloc_cell(const_cell(actual.value))
        if isinstance(actual, ast.LinExpr):
            resolved = self._resolve_linexpr(actual, caller_scope, allocate=True)
            d = self._alloc_dim()
            idx = self._alloc_cell(dvar_cell(d))
            if resolved is None:
                self.step_false = True
            else:
                coeffs, const = resolved
                coeffs[d] = coeffs.get(d, Fraction(0)) - 1
                self._add_row(row("=", coeffs, const))
            return idx
        raise TypeError(f"bad actual: {actual!r}")

    # -------------------------------------------------------- consistency

    def is_consistent(self):
        return not self.step_false and not ls_is_empty(self.lin)

    # ------------------------------------------------------- unification

    def _unify(self, idx, rhs, scope_id=None):
        """Tell-mode: unify the cell at idx with `rhs`, a term told in
        scope_id, another cell's index, or a cell value other than a ref
        (merge replay). The walk keeps an explicit stack and pushes tails
        before heads, so its effects come in the order of a preorder walk.
        """
        stack = [(idx, rhs, None)]
        while stack:
            i, t, seen = stack.pop()
            if isinstance(t, ast.Anon):
                continue  # an anonymous position constrains nothing
            if isinstance(t, ast.Var):
                t, seen = self.lookup(scope_id, t.name), None
            elif isinstance(t, (ast.Atom, ast.Num)):
                t = const_cell(t.name if isinstance(t, ast.Atom) else t.value)
            a = self.deref(i)
            ca = self._cell(a)
            if isinstance(t, ast.Cons):
                if ca == UNBOUND:
                    if self._reaches([t], a, scope_id):
                        self.step_false = True
                        continue
                    ca = functor_cell(self._alloc_cell(UNBOUND))
                    self._alloc_cell(UNBOUND)  # tail at head + 1
                    self._set(a, ca)
                if ca[0] != "functor":
                    self.step_false = True
                    continue
                stack.append((ca[1] + 1, t.tail, None))
                stack.append((ca[1], t.head, None))
                continue
            b = None
            if isinstance(t, int):
                b = self.deref(t)
                if a == b:
                    continue
                t = self._cell(b)
            if ca == UNBOUND:
                if b is not None and t == UNBOUND:
                    self._set(max(a, b), ref_cell(min(a, b)))
                elif self._reaches([t], a):
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

    def _entailed(self, idx, rhs, scope_id):
        """Ask-mode: does the store entail that the cell at idx equals the
        term rhs (resolved in scope_id)? Pure; walks like `_unify`."""
        stack = [(idx, rhs)]
        seen = set()
        while stack:
            i, t = stack.pop()
            if isinstance(t, ast.Anon):
                continue
            if isinstance(t, ast.Var):
                t = self.lookup(scope_id, t.name)
            elif isinstance(t, (ast.Atom, ast.Num)):
                t = const_cell(t.name if isinstance(t, ast.Atom) else t.value)
            a = self.deref(i)
            ca = self._cell(a)
            if isinstance(t, ast.Cons):
                if ca[0] != "functor":
                    return False
                stack.append((ca[1] + 1, t.tail))
                stack.append((ca[1], t.head))
                continue
            if isinstance(t, int):
                b = self.deref(t)
                if a == b:
                    continue
                t = self._cell(b)
            if ca[0] == "functor" and t[0] == "functor":  # t is cell b's value
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

    def _resolve_linexpr(self, e, scope_id, allocate):
        """Map variable names to dimensions/values. Returns ({dim: coef}, const)
        or None when a variable carries no numeric information (or clashes)."""
        coeffs = {}
        const = Fraction(e.const)
        for name, c in e.coeffs:
            idx = self.deref(self.lookup(scope_id, name))
            cell = self._cell(idx)
            if cell == UNBOUND:
                if not allocate:
                    return None
                d = self._alloc_dim()
                self._set(idx, dvar_cell(d))
                coeffs[d] = coeffs.get(d, Fraction(0)) + c
            elif cell[0] == "dvar":
                coeffs[cell[1]] = coeffs.get(cell[1], Fraction(0)) + c
            elif cell[0] == "const" and isinstance(cell[1], Fraction):
                const += c * cell[1]
            else:
                return None
        return coeffs, const

    # ------------------------------------------------------- instructions

    def add_constraint(self, scope_id, c):
        """Tell-mode: meet the store with a constraint, resolving in scope."""
        if isinstance(c, ast.CTrue):
            return
        if isinstance(c, ast.StreamEq):
            self._unify(self.lookup(scope_id, c.var), c.rhs, scope_id)
            return
        if isinstance(c, ast.Linear):
            resolved = self._resolve_linexpr(c.lhs - c.rhs, scope_id, allocate=True)
            if resolved is None:
                self.step_false = True
                return
            coeffs, const = resolved
            self._add_row(row(c.op, coeffs, const))
            return
        raise TypeError(f"bad constraint: {c!r}")

    def entails(self, scope_id, c):
        """Ask-mode: is the constraint entailed? Pure - never allocates."""
        if not self.is_consistent():
            return True
        if isinstance(c, ast.CTrue):
            return True
        if isinstance(c, ast.Linear):
            resolved = self._resolve_linexpr(c.lhs - c.rhs, scope_id, allocate=False)
            if resolved is None:
                return False
            coeffs, const = resolved
            return ls_entails(self.lin, row(c.op, coeffs, const))
        if isinstance(c, ast.StreamEq):
            return self._entailed(self.lookup(scope_id, c.var), c.rhs, scope_id)
        raise TypeError(f"bad constraint: {c!r}")

    # -------------------------------------------------------------- merge

    @staticmethod
    def merge(base, locals_):
        """Commit sibling snapshots of one instant onto a branch of their
        base, which it returns; base and snapshots stay as they were.

        Scope-tree growth survives even when a sibling's constraints clash;
        constraint content is the least upper bound, with stream clashes
        latching inconsistency.
        """
        out = base.branch()
        base_log, base_len = base.write_log, base.n_cells
        # each lin grew from base.lin; one that only grew dims still counts
        lins = [snap.lin for snap in locals_ if snap.lin is not base.lin]
        if lins:
            out.lin = ls_meet(base.lin, lins)
        for snap in locals_:
            out.step_false = out.step_false or snap.step_false
            for nid, node in snap.node_log.items():
                if nid >= base.n_nodes:  # created by the snapshot
                    out.node_log[nid] = node
                    out.n_nodes = max(out.n_nodes, nid + 1)
            # its own writes (beyond base's delta): new registers, then older
            # ones; allocation keeps indices disjoint across siblings
            own = sorted((idx, cell) for idx, cell in snap.write_log.items()
                         if base_log.get(idx) is not cell)
            for idx, cell in own:
                if idx >= base_len:
                    out._set(idx, cell)
            for idx, cell in own:
                if idx < base_len:
                    out._unify(idx, cell[1] if cell[0] == "ref" else cell)
        return out

    # --------------------------------------------------------------- dump

    def counts(self):
        return {"nodes": self.n_nodes, "registers": self.n_cells,
                "dims": self.lin.dims}

    def dump(self, memo=None):
        """The store as `docs/trace.md` describes it; a slot that only a
        sibling snapshot allocated is rendered as null. Given a `DumpMemo`,
        the same document as compact JSON text, which encodes again only
        the slots that changed since the memo's previous dump."""
        scopes = _overlaid(self.base.scopes, self.node_log, self.n_nodes)
        memory = _overlaid(self.base.memory, self.write_log, self.n_cells)
        if memo is None:
            return {
                "consistent": self.is_consistent(),
                "nodes": self.n_nodes,
                "registers": self.n_cells,
                "dims": self.lin.dims,
                "scopes": [_node_doc(node) for node in scopes],
                "memory": [_cell_doc(cell) for cell in memory],
                "lin": dump_lin(self.lin),
            }
        return ('{"consistent":%s,"nodes":%d,"registers":%d,"dims":%d,'
                '"scopes":[%s],"memory":[%s],"lin":[%s]}' % (
                    "true" if self.is_consistent() else "false",
                    self.n_nodes, self.n_cells, self.lin.dims,
                    ",".join(_memo_texts(memo.nodes, memo.node_text,
                                         scopes, _node_text)),
                    ",".join(_memo_texts(memo.cells, memo.cell_text,
                                         memory, _cell_text)),
                    ",".join(map(_json_str, dump_lin(self.lin)))))
