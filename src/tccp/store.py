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
executes on its own branch, all branches sharing one allocator so that
register, node and dimension indices stay disjoint and survive the merge
verbatim. Merging replays each branch's write log onto the base through
unification; a clash (atom vs number, structure vs numeric, occurs cycle)
latches the whole store inconsistent.
"""

from fractions import Fraction

from . import ast
from .errors import (
    DuplicateInScopeError, UnboundActualError, UnknownSymbolError,
)
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


class Allocator:
    """Run-global counters; shared by every snapshot of one computation."""

    __slots__ = ("next_cell", "next_node", "next_dim")

    def __init__(self):
        self.next_cell = 0
        self.next_node = 0
        self.next_dim = 0


class ScopeNode:
    __slots__ = ("id", "parent", "kind", "label", "symbols")

    def __init__(self, id, parent, kind, label=""):
        self.id = id
        self.parent = parent
        self.kind = kind
        self.label = label
        self.symbols = {}


class Store:
    """One value of the store; snapshots are branches sharing the allocator."""

    __slots__ = ("alloc", "scopes", "memory", "lin", "step_false",
                 "write_log", "new_nodes")

    def __init__(self, alloc=None):
        self.alloc = alloc or Allocator()
        self.scopes = []
        self.memory = []
        self.lin = ls_new()
        self.step_false = False
        self.write_log = {}
        self.new_nodes = []

    @staticmethod
    def new():
        s = Store()
        s.add_scope(ROOT, None)
        return s

    # ------------------------------------------------------------ branches

    def branch(self):
        """Snapshot for one thread/agent of the current instant."""
        s = Store(self.alloc)
        s.scopes = list(self.scopes)
        s.memory = list(self.memory)
        s.lin = self.lin
        s.step_false = self.step_false
        return s

    def seal(self):
        """Forget per-instant bookkeeping after a commit."""
        self.write_log = {}
        self.new_nodes = []
        return self

    # ----------------------------------------------------------- low level

    def _set(self, idx, cell):
        if idx >= len(self.memory):
            self.memory.extend([None] * (idx + 1 - len(self.memory)))
        self.memory[idx] = cell
        self.write_log[idx] = cell

    def _alloc_cell(self, cell):
        idx = self.alloc.next_cell
        self.alloc.next_cell += 1
        self._set(idx, cell)
        return idx

    def _alloc_dim(self):
        d = self.alloc.next_dim
        self.alloc.next_dim += 1
        self.lin = ls_grow(self.lin, d + 1)
        return d

    def _add_row(self, r):
        self.lin = ls_add(ls_grow(self.lin, self.alloc.next_dim), r)

    def deref(self, idx):
        cell = self.memory[idx]
        while cell is not None and cell[0] == "ref":
            idx = cell[1]
            cell = self.memory[idx]
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
                x = self.memory[x]
            if not isinstance(x, tuple):
                continue  # an atom, a number, `_` or a hole in memory
            if x[0] == "ref":
                stack.append(x[1])
            elif x[0] == "functor":
                stack.append(x[1])
                stack.append(x[1] + 1)
        return False

    # ------------------------------------------------------------- scopes

    def add_scope(self, kind, parent, label=""):
        nid = self.alloc.next_node
        self.alloc.next_node += 1
        node = ScopeNode(nid, parent, kind, label)
        if nid >= len(self.scopes):
            self.scopes.extend([None] * (nid + 1 - len(self.scopes)))
        self.scopes[nid] = node
        self.new_nodes.append(nid)
        return nid

    def add_variable(self, scope_id, name):
        node = self.scopes[scope_id]
        if name in node.symbols:
            raise DuplicateInScopeError(name)
        idx = self._alloc_cell(UNBOUND)
        node.symbols[name] = idx
        return idx

    def lookup(self, scope_id, name):
        nid = scope_id
        while nid is not None:
            node = self.scopes[nid]
            if name in node.symbols:
                return node.symbols[name]
            if node.kind == PROC_CALL:
                break  # call boundary: formals and locals only
            nid = node.parent
        raise UnknownSymbolError(name)

    def add_parameter(self, scope_id, formal, actual, caller_scope):
        """Link one formal of a fresh call node to its actual."""
        node = self.scopes[scope_id]
        if formal in node.symbols:
            raise DuplicateInScopeError(formal)
        if isinstance(actual, ast.Var):
            try:
                node.symbols[formal] = self.lookup(caller_scope, actual.name)
            except UnknownSymbolError:
                raise UnboundActualError(actual.name)
        elif isinstance(actual, ast.Atom):
            node.symbols[formal] = self._alloc_cell(const_cell(actual.name))
        elif isinstance(actual, ast.Num):
            node.symbols[formal] = self._alloc_cell(const_cell(actual.value))
        elif isinstance(actual, ast.LinExpr):
            resolved = self._resolve_linexpr(actual, caller_scope, allocate=True)
            d = self._alloc_dim()
            node.symbols[formal] = self._alloc_cell(dvar_cell(d))
            if resolved is None:
                self.step_false = True
            else:
                coeffs, const = resolved
                coeffs[d] = coeffs.get(d, Fraction(0)) - 1
                self._add_row(row("=", coeffs, const))
        else:
            raise TypeError(f"bad actual: {actual!r}")
        return node.symbols[formal]

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
            ca = self.memory[a]
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
                t = self.memory[b]
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
            ca = self.memory[a]
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
                t = self.memory[b]
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
            cell = self.memory[idx]
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
        """Commit sibling snapshots of one instant onto their base.

        Scope-tree growth survives even when a sibling's constraints clash;
        constraint content is the least upper bound, with stream clashes
        latching inconsistency.
        """
        out = base.branch()
        out.write_log = dict(base.write_log)
        out.new_nodes = list(base.new_nodes)
        base_len = len(base.memory)
        logs = []
        for snap in locals_:
            out.step_false = out.step_false or snap.step_false
            out.lin = ls_meet(out.lin, snap.lin)
            for nid in snap.new_nodes:
                node = snap.scopes[nid]
                if nid >= len(out.scopes):
                    out.scopes.extend([None] * (nid + 1 - len(out.scopes)))
                out.scopes[nid] = node
                out.new_nodes.append(nid)
            logs.append(sorted(snap.write_log.items()))
        for log in logs:  # creations first: indices are disjoint by allocator
            for idx, cell in log:
                if idx >= base_len:
                    out._set(idx, cell)
        for log in logs:
            for idx, cell in log:
                if idx < base_len:
                    out._unify(idx, cell[1] if cell[0] == "ref" else cell)
        return out

    # --------------------------------------------------------------- dump

    def counts(self):
        return {"nodes": len(self.scopes), "registers": len(self.memory),
                "dims": self.lin.dims}

    def dump(self):
        scopes = []
        for node in self.scopes:
            scopes.append({
                "id": node.id,
                "parent": node.parent,
                "kind": node.kind,
                "label": node.label,
                "symbols": {k: v for k, v in node.symbols.items()},
            })
        memory = []
        for cell in self.memory:
            kind = cell[0]
            if kind == "unbound":
                memory.append({"kind": "unbound"})
            elif kind == "const":
                v = cell[1]
                memory.append({"kind": "const",
                               "value": v if isinstance(v, str) else _num_str(v)})
            elif kind == "dvar":
                memory.append({"kind": "dvar", "dim": cell[1]})
            elif kind == "ref":
                memory.append({"kind": "ref", "to": cell[1]})
            else:
                memory.append({"kind": "functor", "head": cell[1]})
        return {
            "consistent": self.is_consistent(),
            "nodes": len(self.scopes),
            "registers": len(self.memory),
            "dims": self.lin.dims,
            "scopes": scopes,
            "memory": memory,
            "lin": dump_lin(self.lin),
        }


def _num_str(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"
