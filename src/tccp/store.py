"""Global constraint store: a scope tree over a register array plus a
linear store.

Scope nodes are created by `exists` agents and procedure calls and form a
tree; `lookup` walks from a node toward the root but stops at the first
procedure-call node after checking it, so a called body sees its formals
and locals only. Registers hold stream structure: an unbound register
told a cons becomes a functor cell, with its head and tail freshly
allocated at adjacent positions. Numeric variables become DiscreteVar
cells pointing at linear-store dimensions, allocated lazily, on first use
in a linear constraint. One walk, `_unify`, serves stream tells, merge
replay and stream asks, and binds every register but a numeric one given
its dimension: an ask is a tell that would add no information, and it
writes nothing.

Tells, asks and call actuals have one calling convention: a code and
its environment, the tuple of the registers of the names in scope, one
per slot. A code is compiled over `slots`, a dict from each name in
scope to its slot (an inner name shadows an outer equal one). A term
compiles to None for `_`, a variable's slot, a constant's cell, or
("cons", head, tail, the slots of the variables under it); a constraint
to (STREAM, slot, term), (LIN, op, ((slot, coef), ...), const) for `sum
coef * var + const op 0`, or (TRUE,); an actual parameter to a slot, a
cell or a LIN code.

Stores are stepped through snapshots: a thread of one time instant that
writes does so on its own branch (`tccp.interp` says which do). Every
store of one run shares one `Base`: the allocation counters, which keep
register and dimension indices disjoint so that they survive the merge
verbatim, the base list of registers, and the run's one list of scope
nodes. A node is made whole and never changed, so `add_scope` appends it
at its id. A store keeps three counts of what it sees: `n_cells`
registers, the first `n_nodes` nodes and `n_dims` dimensions, each
counting what it and its ancestors allocated and, once merged, its
siblings. A store reads its own register writes, then the view that its
parent had at the branch, then the base. Branching is O(1): a parent
builds its view at most once between two of its own writes, and its
branches share it. Merging reads only the siblings' own writes: siblings
that changed nothing drop out, the first writer is adopted in O(its own
writes), and each later writer's new registers are copied as they are
and its older ones unified in index order; a clash (atom vs number,
structure vs numeric, occurs cycle) latches the whole store inconsistent.
A lone writer is adopted in place (`adopt`); both count at least the
base's `n_nodes`, which can grow after a branch.

Only `seal()` writes the base list of registers: it folds the view into
it in place, and logs the indices it folds, in O(this instant's
changes), and so invalidates every other store over the same base, the
sealed store's own ancestors and siblings included. A store that must
outlive the next seal is copied first with `frozen()`, which costs
O(store). A frozen copy keeps the change log's length, so a `DumpMemo`
encodes again only the registers logged between the store it printed
last and the next.
"""

from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from . import ast
from .errors import UnknownSymbolError
from .linear import (
    dump_lin, ls_add, ls_entails, ls_meet, ls_new, row,
)

UNBOUND = ("unbound",)
_FRESH = object()  # `seen` of a cons that `_unify` binds at a new register

ROOT, EXISTS, PROC_CALL = "root", "exists", "proc_call"


def _leaf_rule(ca, cb):
    """The const/dvar rule of the one walk (tell, replay and ask) for two
    bound cells that are not both functors: True when they are equal,
    False on a clash, else the linear row that their equality needs."""
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
            done.append(("const",
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
    in place, the scope nodes, each at its id, that `add_scope` appends,
    and the change log, the index of every register that `seal()` folded,
    in order; `mark` is the log's length when `memory` was as it is."""

    __slots__ = ("memory", "scopes", "next_cell", "next_dim", "log", "mark")

    def __init__(self):
        self.memory = []
        self.scopes = []
        self.next_cell = 0
        self.next_dim = 0
        self.log, self.mark = [], 0


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


# the text of a register by kind, and of a scope node by shape (kind,
# label, *names), less their numbers; a run has few shapes
_CELL_FORMAT = {kind: '{"kind":"%s"}' % kind if field is None else
                '{"kind":"%s","%s":%%s}' % (kind, field)
                for kind, field in _CELL_FIELD.items()}
_NODE_FORMAT = {}


def _cell_text(cell):
    if cell is None:
        return "null"
    return _CELL_FORMAT[cell[0]] % (
        (_json_str(_cell_arg(cell)),) if cell[0] == "const" else cell[1:])


def _node_text(node):
    shape = (node.kind, node.label, *node.symbols)
    text = _NODE_FORMAT.get(shape)
    if text is None:
        kind, label, *names = [_json_str(x).replace("%", "%%") for x in shape]
        text = _NODE_FORMAT[shape] = (
            '{"id":%%d,"parent":%%s,"kind":%s,"label":%s,"symbols":{%s}}' % (
                kind, label, ",".join([name + ":%d" for name in names])))
    return text % (node.id, "null" if node.parent is None else node.parent,
                   *node.symbols.values())


_BLOCK = 128  # registers per joined block of memory text


class DumpMemo:
    """What `Store.dump(memo)` last rendered: the text of each register,
    joined in blocks of `_BLOCK` (each block after the first with a
    leading comma), and the text of each scope node. For a store of the
    same run without unsealed writes it encodes again only the registers
    that the run's change log holds between its mark and the store's,
    either way, plus those past its own length, and rejoins only their
    blocks; otherwise every register. Scope nodes are never changed once
    made, so their text only grows, unless the store holds other nodes."""

    __slots__ = ("log", "mark", "cell_text", "blocks", "nodes", "node_text",
                 "scopes", "n_scopes")

    def __init__(self):
        self.log, self.mark = None, 0  # the log it follows, its place
        self.cell_text, self.blocks = [], []
        self.nodes, self.node_text = [], []  # the scope nodes rendered
        self.scopes, self.n_scopes = "", 0  # the first n_scopes, joined

    def _registers(self, memory, log, mark):
        """Bring the register texts to `memory`, the registers of a store
        as they stood at `mark` in `log` (None: unsealed writes)."""
        text, n = self.cell_text, len(memory)
        top, nb, redo = min(n, len(text)), -(-n // _BLOCK), ()
        if log is not None and log is self.log:
            lo, hi = sorted((self.mark, mark))
            redo = {i for i in log[lo:hi] if i < top}
        else:
            top = 0
            del text[:]
        self.log, self.mark = log, mark
        dirty = {i // _BLOCK for i in redo}.union(range(top // _BLOCK, nb))
        for i in redo:
            text[i] = _cell_text(memory[i])
        del text[n:], self.blocks[nb:]
        text += map(_cell_text, memory[top:n])
        blocks = self.blocks
        blocks += [""] * (nb - len(blocks))
        for k in dirty:
            blocks[k] = ("," if k else "") + ",".join(
                text[k * _BLOCK:(k + 1) * _BLOCK])

    def _scopes(self, scopes, n):
        nodes, text = self.nodes, self.node_text
        k = min(n, len(nodes))
        if k and scopes[k - 1] is not nodes[k - 1]:  # not the same nodes
            del nodes[:], text[:]
            self.scopes, self.n_scopes = "", 0
        new = scopes[len(nodes):n]
        nodes += new
        text += map(_node_text, new)
        if n > self.n_scopes > 0:
            self.scopes += "," + ",".join(text[self.n_scopes:n])
        elif n != self.n_scopes:
            self.scopes = ",".join(text[:n])
        self.n_scopes = n


class Store:
    """One value of the store: own register writes over an inherited view
    over the base that every store of its run shares, and a linear store;
    it sees `n_cells` registers, the first `n_nodes` of the run's scope
    nodes and `n_dims` dimensions (see the module docstring)."""

    __slots__ = ("base", "inherited", "write_log", "view", "n_cells",
                 "n_nodes", "n_dims", "lin", "step_false")

    def __init__(self):
        self.base = Base()
        self.inherited = {}  # the parent's view: read only
        self.write_log = {}  # register index -> cell, written since the branch
        self.view = None  # inherited plus own, once built
        # lengths of memory, scopes and the dimension space as this store
        # sees them, counting slots that only a sibling filled
        self.n_cells = 0
        self.n_nodes = 0
        self.n_dims = 0
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
        s.base, s.n_cells, s.n_nodes, s.n_dims, s.lin, s.step_false = (
            self.base, self.n_cells, self.n_nodes, self.n_dims, self.lin,
            self.step_false)
        return s

    def seal(self):
        """Fold the view into the base's registers, in place, and append
        their indices to the change log. Every other store over this base
        reads the result from now on, so none of them is valid any more;
        this one stays valid, with nothing over the base."""
        base, memory = self.base, self.base.memory
        memory += [None] * (self.n_cells - len(memory))
        for delta in (self.inherited, self.write_log):
            for i, x in delta.items():
                memory[i] = x
            base.log += delta
        base.mark = len(base.log)
        self.inherited, self.write_log, self.view = {}, {}, None
        return self

    def frozen(self):
        """A copy that no later seal changes: O(store). It reads like this
        store, over a base of its own that cannot be sealed, with its own
        copy of the scope nodes that it sees. Without unsealed writes it
        shares the run's change log, at this store's mark."""
        s = self.branch()
        base = s.base = Base()
        base.memory = tuple(_overlaid(self.base.memory, s.inherited,
                                      self.n_cells))
        base.scopes = self.base.scopes[:self.n_nodes]
        base.next_cell, base.next_dim = self.base.next_cell, self.base.next_dim
        if not s.inherited:  # as the run's memory stood at its mark
            base.log, base.mark = self.base.log, self.base.mark
        s.inherited = {}
        return s

    # ----------------------------------------------------------- low level

    def _set(self, idx, cell):
        self.write_log[idx] = cell
        self.view = None
        if idx >= self.n_cells:
            self.n_cells = idx + 1

    def _alloc_dim(self):
        d = self.base.next_dim
        self.base.next_dim += 1
        self.n_dims = d + 1
        return d

    def _add_row(self, r):
        self.lin = ls_add(self.lin, r)

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

    def new_cell(self, cell=UNBOUND):
        """One new register, unbound unless given its cell; its index."""
        idx = self.base.next_cell
        self.base.next_cell = self.n_cells = idx + 1
        self.write_log[idx], self.view = cell, None
        return idx

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
        """The new register of a formal whose actual is `actual`, a code
        from `compile_actual` over env other than a variable's slot (whose
        register is the caller's own)."""
        if actual[0] == "const":
            return self.new_cell(actual)
        resolved = self._resolve(actual, env, allocate=True)
        d = self._alloc_dim()
        idx = self.new_cell(("dvar", d))
        if resolved is None:
            self.step_false = True
        else:
            coeffs, const = resolved
            coeffs[d] = coeffs.get(d, 0) - 1
            self._add_row(row("=", coeffs, const))
        return idx

    # -------------------------------------------------------- consistency

    def is_consistent(self):
        return not (self.step_false or self.lin.empty)

    # ------------------------------------------------------- unification

    def _unify(self, idx, rhs, env=None, ask=False):
        """Unify register idx with another register, with a cell value other
        than a ref (merge replay), or, given env, with a compiled term over
        env. With `ask` (and env) the walk writes nothing: it returns False
        wherever a tell would bind a register, latch a clash or add a row
        that the linear store does not entail, and True otherwise. The walk
        keeps an explicit stack and pushes tails before heads, so its
        effects come in the order of a preorder walk; a clash latches
        inconsistency and skips the rest of its cell. A pair that it
        allocates it binds as it is made, unread: nothing reaches it yet.
        """
        if env is not None:
            if rhs is None:
                return True
            rhs = env[rhs] if isinstance(rhs, int) else rhs
        log, inh, mem = self.write_log, self.inherited, self.base.memory
        deref, stack = self._deref, [(idx, rhs, None)]
        while stack:
            a, t, seen = stack.pop()
            ca = UNBOUND if seen is _FRESH else (
                log.get(a) or inh.get(a) or mem[a])
            if ca[0] == "ref":
                a, ca = deref(ca[1])
            b = None
            if isinstance(t, int):
                b, t = t, log.get(t) or inh.get(t) or mem[t]
                if t[0] == "ref":
                    b, t = deref(t[1])
                if a == b:
                    continue
            elif t[0] == "cons":
                if ca == UNBOUND and not ask and (seen is _FRESH or not (
                        t[3] and self._reaches([env[s] for s in t[3]], a))):
                    h = self.new_cell()  # bound as made, tail first as below
                    self.new_cell()  # the tail at head + 1
                    self._set(a, ("functor", h))
                    for k, p in ((h + 1, t[2]), (h, t[1])):
                        if isinstance(p, int):
                            log[k] = ("ref", deref(env[p])[0])
                        elif p is not None and p[0] == "cons":
                            stack.append((k, p, _FRESH))
                        elif p is not None:
                            log[k] = p
                    continue
                if ca[0] != "functor":
                    if ask:
                        return False
                    self.step_false = True
                    continue
                stack += [(h, env[p] if isinstance(p, int) else p, None)
                          for h, p in ((ca[1] + 1, t[2]), (ca[1], t[1]))
                          if p is not None]
                continue
            if ask and (ca == UNBOUND or t == UNBOUND):
                return False  # a tell would bind a register
            if ca == UNBOUND:
                if b is not None and t == UNBOUND:  # the newer refs the older
                    a, b = (a, b) if a > b else (b, a)
                    self._set(a, ("ref", b))
                elif t[0] == "functor" and self._reaches([t], a):
                    self.step_false = True
                else:
                    self._set(a, t if b is None else ("ref", b))
            elif t == UNBOUND:
                if self._reaches([ca], b):
                    self.step_false = True
                else:
                    self._set(b, ("ref", a))
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
                if ask:
                    if r is False or r is not True and not ls_entails(
                            self.lin, r):
                        return False
                elif r is False:
                    self.step_false = True
                elif r is not True:
                    self._add_row(r)
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
                self._set(idx, ("dvar", d))
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
            return self._unify(env[c[1]], c[2], env, ask=True)
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

        Scope-tree growth survives even when a sibling's constraints clash,
        and the result sees at least base's nodes; constraint content is
        the least upper bound, with stream clashes latching inconsistency.
        """
        base_len = base.n_cells
        writers = [s for s in locals_ if s.write_log
                   or s.n_nodes != base.n_nodes or s.lin is not base.lin
                   or s.step_false != base.step_false]
        first, rest = base, writers
        if writers and writers[0].adoptable(base_len):
            first, rest = writers[0], writers[1:]
        out = Store.__new__(Store)
        out.inherited, out.view = base.inherited, None
        out.write_log = wl = {**base.write_log, **first.write_log}
        out.base, out.n_cells, out.n_nodes, out.n_dims = (
            base.base, first.n_cells, max(first.n_nodes, base.n_nodes),
            first.n_dims)
        out.lin, out.step_false = first.lin, first.step_false
        if rest and any(snap.lin is not base.lin for snap in rest):
            # each lin grew from base.lin
            out.lin = ls_meet(base.lin, [snap.lin for snap in writers
                                         if snap.lin is not base.lin])
        for snap in rest:
            out.step_false = out.step_false or snap.step_false
            out.n_cells = max(out.n_cells, snap.n_cells)
            out.n_nodes = max(out.n_nodes, snap.n_nodes)
            out.n_dims = max(out.n_dims, snap.n_dims)
            # new registers as they are (allocation keeps indices disjoint
            # across siblings), then older ones, unified in index order
            log = snap.write_log
            wl.update([x for x in log.items() if x[0] >= base_len])
            for i in sorted([i for i in log if i < base_len]):
                cell = log[i]
                out._unify(i, cell[1] if cell[0] == "ref" else cell)
        return out

    def adopt(self, base):
        """`merge(base, [self])` built in this snapshot, branched off base
        and `adoptable(base.n_cells)`; its view already holds base's writes."""
        if base.write_log:
            self.write_log = {**base.write_log, **self.write_log}
        self.inherited = base.inherited
        self.n_nodes = max(self.n_nodes, base.n_nodes)
        return self

    def adoptable(self, base_len):
        """Does replay onto a base of `base_len` registers give back this
        snapshot's own writes? Not when it refs an older register that it
        also bound: replay would turn that ref around (a thread that ran
        `tell(Y = a) || tell(X = Y)`, X older)."""
        log = self.write_log
        for c in log.values():
            if c[0] == "ref" and c[1] < base_len and c[1] in log:
                return False
        return True

    # --------------------------------------------------------------- dump

    def counts(self):
        return {"nodes": self.n_nodes, "registers": self.n_cells,
                "dims": self.n_dims}

    def dump(self, memo=None):
        """The store as `docs/trace.md` describes it, as compact JSON text;
        a register that only a sibling snapshot allocated is rendered as
        null, and scopes are the run's first `n_nodes` nodes. Kept across
        dumps, a `DumpMemo` encodes again only the registers and nodes that
        changed since its previous dump."""
        memo, base, view = memo or DumpMemo(), self.base, self._view()
        memo._registers(_overlaid(base.memory, view, self.n_cells),
                        None if view else base.log, base.mark)
        memo._scopes(base.scopes, self.n_nodes)
        return "".join([
            '{"consistent":%s,"nodes":%d,"registers":%d,"dims":%d,'
            '"scopes":[' % ("true" if self.is_consistent() else "false",
                            self.n_nodes, self.n_cells, self.n_dims),
            memo.scopes, '],"memory":[', *memo.blocks, '],"lin":[',
            ",".join(map(_json_str, dump_lin(self.lin))), "]}"])
