"""Project-wide symbol table and call graph for the audit engine.

Engine v2 reasons *across* functions: a blocking ``os.fsync`` buried in
a helper must still fail the audit when a coroutine reaches it three
calls away.  This module extracts, per source file, a
:class:`ModuleSummary` — every function definition, every call site,
and every "primitive operation of interest" (blocking I/O, wall-clock
reads, ambient randomness, ``hash()``, unordered-set iteration, float
accumulation, await-boundary read/write pairs) — and assembles the
summaries into a :class:`Project` that resolves call sites to callees
and answers reachability questions.

Summaries deliberately hold **no AST nodes**: the interprocedural
rules run over summaries alone.

Resolution is *static and conservative*.  A call site resolves when the
callee is:

* a function or class defined in the same module (a class resolves to
  its ``__init__``);
* ``self.method`` inside a class body (single class, no MRO walk);
* ``self.attr.method`` where ``self.attr`` was assigned a known class
  instance in any method of the same class (``self._x = Foo(...)``) or
  bound from a parameter annotated with a known class name;
* an imported name (``from mod import f``; ``import pkg.mod as m`` +
  ``m.f``), followed through to the defining module when that module is
  part of the project;
* a local alias, including ``g = f`` and ``g = functools.partial(f,
  ...)`` — partials resolve to their first argument.

Anything else (duck-typed receivers, dynamic dispatch) stays
unresolved, which keeps the analysis honest: facts only flow along
edges we can actually prove.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CallRecord",
    "OpRecord",
    "AwaitRace",
    "FunctionInfo",
    "ModuleSummary",
    "Project",
    "build_module_summary",
]


# --------------------------------------------------------------------------
# primitive-operation tables
# --------------------------------------------------------------------------

#: ``module.attr`` calls that block the calling thread.
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.sync",
        "os.replace",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "socket.socket",
        "shutil.copy",
        "shutil.copytree",
    }
)

#: Terminal attributes that block regardless of receiver (file/socket I/O
#: and this repository's documented blocking seams).
BLOCKING_ATTRS = frozenset(
    {
        "fsync",
        "write_text",
        "read_text",
        "write_bytes",
        "read_bytes",
        "sendall",
        "makefile",
        "transact",  # PeerClient.transact: documented thread-blocking
        "ensure_running",  # ProcessSupervisor: spawn + wait_ready
        "wait_ready",
        "stop_all",
        "run_with_policy",
    }
)

#: Terminal attributes that block only when the receiver name hints at
#: the right kind of object (``thread.join`` blocks; ``", ".join`` does
#: not).
BLOCKING_ATTRS_BY_RECEIVER = {
    "join": ("thread", "proc", "process"),
    "wait": ("proc", "process", "popen"),
    "result": ("future", "fut"),
    "recv": ("sock", "conn"),
    "accept": ("sock", "server"),
    "connect": ("sock", "conn"),
    "barrier": ("journal", "writer"),
    "acquire": ("lock", "sem"),
}

#: Bare-name calls that block (builtins).
BLOCKING_NAMES = frozenset({"open", "input", "sleep"})

#: Wall-clock reads — the determinism rules treat monotonic/perf_counter
#: as benign (local measurement), but civil time reaches transcripts.
WALLCLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "localtime", "gmtime", "ctime", "strftime", "asctime"}
)
WALLCLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})

#: Ambient (non-RandomSource) randomness.
AMBIENT_RANDOM_RECEIVERS = frozenset({"random", "secrets"})
AMBIENT_RANDOM_DOTTED = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

#: Callables that wrap their *argument* callable to run off the loop.
OFFLOOP_WRAPPERS = frozenset({"to_thread", "run_in_executor"})

#: Callables that schedule their argument coroutine as a task.
TASK_SPAWNERS = frozenset({"create_task", "ensure_future", "gather", "wait", "shield"})

#: Event-loop methods that are not thread-safe (ASY005).
LOOP_UNSAFE_ATTRS = frozenset({"call_soon", "call_at", "call_later", "create_task"})


# --------------------------------------------------------------------------
# summary records (all JSON-round-trippable)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CallRecord:
    """One call site inside a function body."""

    callee: str  #: dotted callee text as written (``self._dispatch``, ``os.fsync``)
    lineno: int
    col: int
    snippet: str
    context: str  #: qualname of the enclosing function
    awaited: bool = False  #: the call is directly under an ``await``
    wrapped: str = ""  #: "offloop" when passed to to_thread/run_in_executor
    task_spawn: bool = False  #: wrapped in create_task/ensure_future/gather
    bare_expr: bool = False  #: an expression statement whose value is discarded


@dataclass(frozen=True)
class OpRecord:
    """One primitive operation of interest, found locally in a function."""

    kind: str  #: blocking | wallclock | ambient-random | hash | set-iter | float-accum | loop-handoff
    detail: str  #: e.g. ``os.fsync`` — what exactly was seen
    lineno: int
    col: int
    snippet: str
    context: str
    wrapped: str = ""  #: "offloop" when the op sits inside an off-loop wrapper arg


@dataclass(frozen=True)
class AwaitRace:
    """A read→await→write window on shared ``self`` state."""

    attr: str
    read_line: int
    write_line: int
    lineno: int
    col: int
    snippet: str
    context: str
    locked: bool = False


@dataclass
class FunctionInfo:
    """Everything the interprocedural rules need to know about one def."""

    qualname: str
    module: str
    lineno: int
    is_async: bool = False
    params: tuple[str, ...] = ()
    decorators: tuple[str, ...] = ()
    returns_secret: bool = False  #: a return expression is locally secret-tainted
    #: dotted callee texts appearing inside return expressions (for
    #: transitive secret-return propagation)
    return_calls: tuple[str, ...] = ()
    calls: tuple[CallRecord, ...] = ()
    ops: tuple[OpRecord, ...] = ()
    races: tuple[AwaitRace, ...] = ()

    @property
    def ident(self) -> str:
        return f"{self.module}:{self.qualname}"


@dataclass
class ModuleSummary:
    """The per-file unit of the interprocedural analysis."""

    module: str
    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local name → dotted import target ("m" → "pkg.mod", "f" → "pkg.mod.f")
    imports: dict[str, str] = field(default_factory=dict)
    #: "context::name" → callee text, for ``g = f`` / ``g = partial(f, …)``
    aliases: dict[str, str] = field(default_factory=dict)
    #: class qualname → {attr → class-callee text} from ``self.x = C(...)``
    attr_types: dict[str, dict[str, str]] = field(default_factory=dict)
    #: class qualnames defined here (resolution maps C() → C.__init__)
    classes: tuple[str, ...] = ()
    #: line → waived rule list (None = waive everything on the line)
    waivers: dict[int, list[str] | None] = field(default_factory=dict)

    def waived(self, line: int, rule: str) -> bool:
        if line not in self.waivers:
            return False
        rules = self.waivers[line]
        return rules is None or rule in rules


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------


def _dotted_text(expr: ast.AST) -> str:
    """Rebuild a dotted name from a Name/Attribute chain ('' if dynamic)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _receiver_text(expr: ast.AST) -> str:
    """Dotted text of a call's receiver ('' for bare names)."""
    if isinstance(expr, ast.Attribute):
        return _dotted_text(expr.value)
    return ""


def _is_wallclock(callee: str) -> bool:
    head, _, tail = callee.rpartition(".")
    if not head:
        return False
    receiver = head.rsplit(".", 1)[-1].lower()
    if receiver == "time" and tail in WALLCLOCK_TIME_ATTRS:
        return True
    if "date" in receiver and tail in WALLCLOCK_DATE_ATTRS:
        return True
    return False


def _is_ambient_random(callee: str) -> bool:
    if callee in AMBIENT_RANDOM_DOTTED:
        return True
    head, _, tail = callee.rpartition(".")
    if tail in ("default_rng", "Generator", "SeedSequence"):
        return False  # numpy's seeded constructors are deterministic
    return head.rsplit(".", 1)[-1] in AMBIENT_RANDOM_RECEIVERS if head else False


def _is_blocking(callee: str) -> bool:
    if callee in BLOCKING_DOTTED:
        return True
    head, _, tail = callee.rpartition(".")
    if not head:
        return callee in BLOCKING_NAMES
    if tail in BLOCKING_ATTRS:
        return True
    hints = BLOCKING_ATTRS_BY_RECEIVER.get(tail)
    if hints:
        receiver = head.rsplit(".", 1)[-1].lower()
        return any(h in receiver for h in hints)
    return False


def _mentions_secret(expr: ast.AST, secret_names: frozenset[str]) -> bool:
    from repro.audit.taint import is_secret_identifier

    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and is_secret_identifier(node.id, secret_names):
            return True
        if isinstance(node, ast.Attribute) and is_secret_identifier(
            node.attr, secret_names
        ):
            return True
    return False


class _FunctionScanner:
    """Extracts one FunctionInfo from a def node."""

    def __init__(
        self,
        unit,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        secret_names: frozenset[str],
    ) -> None:
        self.unit = unit
        self.qualname = qualname
        self.func = func
        self.secret_names = secret_names
        self.calls: list[CallRecord] = []
        self.ops: list[OpRecord] = []
        self.races: list[AwaitRace] = []
        self.aliases: dict[str, str] = {}
        self.returns_secret = False
        self.return_calls: list[str] = []
        self._set_locals: set[str] = set()
        self._float_locals: set[str] = set()
        # await-boundary tracking (source order is statement order here)
        self._await_lines: list[int] = []
        self._attr_reads: dict[str, list[int]] = {}

    # -- helpers -----------------------------------------------------------

    def _loc(self, node: ast.AST) -> tuple[int, int, str]:
        line = getattr(node, "lineno", 0)
        return line, getattr(node, "col_offset", 0), self.unit.snippet(line)

    def _op(self, node: ast.AST, kind: str, detail: str, wrapped: str = "") -> None:
        line, col, snippet = self._loc(node)
        self.ops.append(
            OpRecord(
                kind=kind,
                detail=detail,
                lineno=line,
                col=col,
                snippet=snippet,
                context=self.qualname,
                wrapped=wrapped,
            )
        )

    # -- the walk ----------------------------------------------------------

    def scan(self) -> FunctionInfo:
        self._walk(self.func, awaited=False, wrapped="", spawned=False, lock_depth=0)
        decorators = tuple(
            _dotted_text(d.func if isinstance(d, ast.Call) else d)
            for d in self.func.decorator_list
        )
        return FunctionInfo(
            qualname=self.qualname,
            module=self.unit.module,
            lineno=self.func.lineno,
            is_async=isinstance(self.func, ast.AsyncFunctionDef),
            params=tuple(a.arg for a in self.func.args.args),
            decorators=decorators,
            returns_secret=self.returns_secret,
            return_calls=tuple(dict.fromkeys(self.return_calls)),
            calls=tuple(self.calls),
            ops=tuple(self.ops),
            races=tuple(self.races),
        )

    def _record_call(
        self,
        node: ast.Call,
        awaited: bool,
        wrapped: str,
        spawned: bool,
        bare: bool,
    ) -> None:
        callee = _dotted_text(node.func)
        if not callee:
            return
        line, col, snippet = self._loc(node)
        self.calls.append(
            CallRecord(
                callee=callee,
                lineno=line,
                col=col,
                snippet=snippet,
                context=self.qualname,
                awaited=awaited,
                wrapped=wrapped,
                task_spawn=spawned,
                bare_expr=bare,
            )
        )
        # Primitive classification (skip awaited calls: ``await x.wait()``
        # is an async primitive, not a thread block).
        if not awaited and _is_blocking(callee):
            self._op(node, "blocking", callee, wrapped=wrapped)
        if _is_wallclock(callee):
            self._op(node, "wallclock", callee, wrapped=wrapped)
        if _is_ambient_random(callee):
            self._op(node, "ambient-random", callee, wrapped=wrapped)
        if callee == "hash" and not self.qualname.endswith("__hash__"):
            self._op(node, "hash", "hash()", wrapped=wrapped)
        tail = callee.rsplit(".", 1)[-1]
        head = callee.rpartition(".")[0]
        if (
            tail in LOOP_UNSAFE_ATTRS
            and head
            and "loop" in head.rsplit(".", 1)[-1].lower()
        ):
            self._op(node, "loop-handoff", callee, wrapped=wrapped)

    def _iter_is_unordered_set(self, expr: ast.AST) -> str:
        """Non-empty detail when ``for x in <expr>`` iterates a set."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set literal"
        if isinstance(expr, ast.Call):
            callee = _dotted_text(expr.func)
            if callee in ("set", "frozenset"):
                return f"{callee}(...)"
            tail = callee.rsplit(".", 1)[-1]
            if tail in ("union", "intersection", "difference", "symmetric_difference"):
                return f".{tail}(...)"
        if isinstance(expr, ast.Name) and expr.id in self._set_locals:
            return f"local set {expr.id!r}"
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd)):
            if self._iter_is_unordered_set(expr.left) or self._iter_is_unordered_set(
                expr.right
            ):
                return "set expression"
        return ""

    def _note_assignment(self, target: ast.AST, value: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        if isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and _dotted_text(value.func) in ("set", "frozenset")
        ):
            self._set_locals.add(target.id)
        if isinstance(value, ast.Constant) and isinstance(value.value, float):
            self._float_locals.add(target.id)
        if isinstance(value, ast.Call):
            callee = _dotted_text(value.func)
            tail = callee.rsplit(".", 1)[-1]
            if tail == "partial" and value.args:
                inner = _dotted_text(value.args[0])
                if inner:
                    self.aliases[target.id] = inner
        elif isinstance(value, (ast.Name, ast.Attribute)):
            dotted = _dotted_text(value)
            if dotted and "." not in dotted and dotted != target.id:
                self.aliases[target.id] = dotted

    def _self_attr(self, node: ast.AST) -> str:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return ""

    def _note_race_write(self, target: ast.AST, node: ast.AST, lock_depth: int) -> None:
        attr = self._self_attr(target)
        if not attr or not isinstance(self.func, ast.AsyncFunctionDef):
            return
        write_line = getattr(node, "lineno", 0)
        for read_line in self._attr_reads.get(attr, ()):
            if any(read_line <= aw < write_line for aw in self._await_lines):
                line, col, snippet = self._loc(node)
                self.races.append(
                    AwaitRace(
                        attr=attr,
                        read_line=read_line,
                        write_line=write_line,
                        lineno=line,
                        col=col,
                        snippet=snippet,
                        context=self.qualname,
                        locked=lock_depth > 0,
                    )
                )
                return

    def _walk(
        self,
        node: ast.AST,
        awaited: bool,
        wrapped: str,
        spawned: bool,
        lock_depth: int,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs get their own FunctionInfo
            child_awaited = awaited
            child_wrapped = wrapped
            child_spawned = spawned
            child_lock = lock_depth

            if isinstance(child, ast.Await):
                self._await_lines.append(getattr(child, "lineno", 0))
                child_awaited = True
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                from repro.audit.rules.common import mentions_identifier

                if any(
                    mentions_identifier(item.context_expr, "lock")
                    for item in child.items
                ):
                    child_lock += 1
            elif isinstance(child, ast.Return) and child.value is not None:
                if _mentions_secret(child.value, self.secret_names):
                    self.returns_secret = True
                for call in ast.walk(child.value):
                    if isinstance(call, ast.Call):
                        dotted = _dotted_text(call.func)
                        if dotted:
                            self.return_calls.append(dotted)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    self._note_assignment(target, child.value)
                    self._note_race_write(target, child, lock_depth)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                self._note_assignment(child.target, child.value)
                self._note_race_write(child.target, child, lock_depth)
            elif isinstance(child, ast.AugAssign):
                self._note_race_write(child.target, child, lock_depth)
                # ``self._total += await f()`` reads, suspends, then
                # writes — a race window inside a single statement.
                attr = self._self_attr(child.target)
                if (
                    attr
                    and isinstance(self.func, ast.AsyncFunctionDef)
                    and any(isinstance(n, ast.Await) for n in ast.walk(child.value))
                ):
                    line, col, snippet = self._loc(child)
                    self.races.append(
                        AwaitRace(
                            attr=attr,
                            read_line=line,
                            write_line=line,
                            lineno=line,
                            col=col,
                            snippet=snippet,
                            context=self.qualname,
                            locked=lock_depth > 0,
                        )
                    )
                # float accumulation: ``acc += <float-ish>`` onto a local
                # seeded from a float constant, or a float constant in
                # the increment.
                is_float_target = (
                    isinstance(child.target, ast.Name)
                    and child.target.id in self._float_locals
                )
                has_float_value = any(
                    isinstance(n, ast.Constant) and isinstance(n.value, float)
                    for n in ast.walk(child.value)
                ) or any(
                    isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                    for n in ast.walk(child.value)
                )
                if isinstance(child.op, ast.Add) and (
                    is_float_target or has_float_value
                ):
                    target_text = _dotted_text(child.target) or "<target>"
                    self._op(child, "float-accum", f"{target_text} += ...")
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                detail = self._iter_is_unordered_set(child.iter)
                if detail:
                    self._op(child, "set-iter", detail)
            elif isinstance(child, ast.comprehension):
                detail = self._iter_is_unordered_set(child.iter)
                if detail:
                    self._op(child, "set-iter", detail)
            elif isinstance(child, ast.Call):
                callee = _dotted_text(child.func)
                tail = callee.rsplit(".", 1)[-1]
                bare = isinstance(node, ast.Expr) and node.value is child
                self._record_call(
                    child, child_awaited, child_wrapped, child_spawned, bare
                )
                if tail in OFFLOOP_WRAPPERS:
                    # Arguments of to_thread/run_in_executor execute off
                    # the loop: record them wrapped.
                    for arg in child.args:
                        self._walk_call_arg(arg, "offloop", child_spawned, child_lock)
                    continue
                if tail in TASK_SPAWNERS:
                    for arg in child.args:
                        self._walk_call_arg(arg, child_wrapped, True, child_lock)
                    continue
                child_awaited = False  # args of a call are not themselves awaited
            elif isinstance(child, (ast.Attribute, ast.Name)) and isinstance(
                getattr(child, "ctx", None), ast.Load
            ):
                attr = self._self_attr(child)
                if attr:
                    self._attr_reads.setdefault(attr, []).append(
                        getattr(child, "lineno", 0)
                    )
            self._walk(child, child_awaited, child_wrapped, child_spawned, child_lock)

    def _walk_call_arg(
        self, arg: ast.AST, wrapped: str, spawned: bool, lock_depth: int
    ) -> None:
        """Record a call appearing as a wrapper argument, then recurse."""
        if isinstance(arg, ast.Call):
            self._record_call(arg, False, wrapped, spawned, bare=False)
        elif isinstance(arg, (ast.Name, ast.Attribute)):
            # ``to_thread(f, x)`` passes f uncalled; record the reference
            # as a wrapped call so facts still flow (it *will* be called).
            callee = _dotted_text(arg)
            if callee:
                line, col, snippet = self._loc(arg)
                self.calls.append(
                    CallRecord(
                        callee=callee,
                        lineno=line,
                        col=col,
                        snippet=snippet,
                        context=self.qualname,
                        awaited=False,
                        wrapped=wrapped,
                        task_spawn=spawned,
                        bare_expr=False,
                    )
                )
            return
        self._walk(arg, False, wrapped, spawned, lock_depth)


def build_module_summary(unit, secret_names: frozenset[str]) -> ModuleSummary:
    """Extract the interprocedural summary of one parsed module."""
    from repro.audit.rules.common import iter_function_defs

    summary = ModuleSummary(module=unit.module, path=unit.path)

    # Imports.
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                summary.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    # Module-level aliases (``g = f``, ``g = partial(f, …)``).
    for node in unit.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value = node.value
                if isinstance(value, ast.Call):
                    callee = _dotted_text(value.func)
                    if callee.rsplit(".", 1)[-1] == "partial" and value.args:
                        inner = _dotted_text(value.args[0])
                        if inner:
                            summary.aliases[f"<module>::{target.id}"] = inner
                elif isinstance(value, (ast.Name, ast.Attribute)):
                    dotted = _dotted_text(value)
                    if dotted:
                        summary.aliases[f"<module>::{target.id}"] = dotted

    # Classes and self-attribute types.
    classes: list[str] = []

    def visit_class(cls: ast.ClassDef, prefix: str) -> None:
        qualname = cls.name if prefix == "<module>" else f"{prefix}.{cls.name}"
        classes.append(qualname)
        attr_types: dict[str, str] = {}
        annotated_params: dict[str, str] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(method, ast.ClassDef):
                    visit_class(method, qualname)
                continue
            for arg in method.args.args:
                if arg.annotation is not None:
                    text = _dotted_text(arg.annotation)
                    if text:
                        annotated_params[f"{method.name}::{arg.arg}"] = text
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        value = node.value
                        if isinstance(value, ast.Call):
                            callee = _dotted_text(value.func)
                            if callee and callee[:1].isupper() or "." in callee:
                                attr_types.setdefault(target.attr, callee)
                        elif isinstance(value, ast.Name):
                            anno = annotated_params.get(
                                f"{method.name}::{value.id}"
                            )
                            if anno:
                                attr_types.setdefault(target.attr, anno)
        if attr_types:
            summary.attr_types[qualname] = attr_types

    for node in unit.tree.body:
        if isinstance(node, ast.ClassDef):
            visit_class(node, "<module>")
    summary.classes = tuple(classes)

    # Functions.
    for qualname, func in iter_function_defs(unit.tree):
        scanner = _FunctionScanner(unit, qualname, func, secret_names)
        info = scanner.scan()
        summary.functions[qualname] = info
        for name, target in scanner.aliases.items():
            summary.aliases[f"{qualname}::{name}"] = target

    # Waivers, so interprocedural findings honor them from the summary.
    for line in range(1, len(unit.lines) + 1):
        waived = unit.waived_rules(line)
        if waived is not None:
            summary.waivers[line] = sorted(waived) if waived else None

    return summary


# --------------------------------------------------------------------------
# the project: resolution + reachability
# --------------------------------------------------------------------------


class Project:
    """All module summaries of one audit run, with call resolution."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        self.modules = summaries
        #: function ident → FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        self._class_index: dict[str, set[str]] = {}
        for summary in summaries.values():
            for info in summary.functions.values():
                self.functions[info.ident] = info
            for cls in summary.classes:
                self._class_index.setdefault(summary.module, set()).add(cls)
        #: filled in by :func:`repro.audit.taint.propagate_facts`
        self.facts: dict[str, dict[str, str]] = {}
        self.secret_returners: frozenset[str] = frozenset()
        # Resolution is pure per built project and called hot inside the
        # fact fixpoint — memoize it.
        self._resolve_memo: dict[tuple[str, str, str], tuple[str, ...]] = {}

    # -- resolution --------------------------------------------------------

    def _function_in(self, module: str, qualname: str) -> str | None:
        ident = f"{module}:{qualname}"
        if ident in self.functions:
            return ident
        # A class name resolves to its constructor.
        if qualname in self._class_index.get(module, ()):  # C() → C.__init__
            init = f"{module}:{qualname}.__init__"
            if init in self.functions:
                return init
        return None

    def _resolve_alias(
        self, summary: ModuleSummary, context: str, name: str, depth: int = 0
    ) -> str | None:
        if depth > 4:
            return None
        target = summary.aliases.get(f"{context}::{name}") or summary.aliases.get(
            f"<module>::{name}"
        )
        if target is None:
            return None
        resolved = self.resolve(summary.module, context, target)
        if resolved:
            return resolved[0]
        return None

    def resolve(
        self, module: str, context: str, callee: str
    ) -> tuple[str, ...]:
        """Resolve a call-site text to function idents (empty = unknown)."""
        key = (module, context, callee)
        cached = self._resolve_memo.get(key)
        if cached is None:
            cached = self._resolve_uncached(module, context, callee)
            self._resolve_memo[key] = cached
        return cached

    def _resolve_uncached(
        self, module: str, context: str, callee: str
    ) -> tuple[str, ...]:
        summary = self.modules.get(module)
        if summary is None:
            return ()
        parts = callee.split(".")

        # self.method / self.attr.method
        if parts[0] == "self" and "." in context:
            cls = context.rsplit(".", 1)[0]
            if len(parts) == 2:
                found = self._function_in(module, f"{cls}.{parts[1]}")
                return (found,) if found else ()
            if len(parts) == 3:
                attr_cls = self.modules[module].attr_types.get(cls, {}).get(parts[1])
                if attr_cls:
                    owner = self._resolve_class(module, attr_cls)
                    if owner:
                        owner_module, owner_cls = owner
                        found = self._function_in(
                            owner_module, f"{owner_cls}.{parts[2]}"
                        )
                        return (found,) if found else ()
            return ()

        # bare name: alias → local def → import
        if len(parts) == 1:
            via_alias = self._resolve_alias(summary, context, parts[0])
            if via_alias:
                return (via_alias,)
            # local defs shadow imports; walk enclosing contexts for
            # nested defs (context "outer.inner" may call sibling
            # "outer.helper").
            scopes = []
            ctx = context
            while ctx and ctx != "<module>":
                ctx = ctx.rsplit(".", 1)[0] if "." in ctx else ""
                scopes.append(f"{ctx}.{parts[0]}" if ctx else parts[0])
            scopes.append(parts[0])
            for qualname in scopes:
                found = self._function_in(module, qualname)
                if found:
                    return (found,)
            imported = summary.imports.get(parts[0])
            if imported:
                return self._resolve_imported(imported)
            return ()

        # dotted name rooted at an import: "m.f", "m.C", "pkg.mod.f"
        root = summary.imports.get(parts[0])
        if root:
            return self._resolve_imported(".".join([root] + parts[1:]))
        # dotted name rooted at a local class: "C.method" (rare, but
        # covers explicit base-class calls)
        found = self._function_in(module, callee)
        return (found,) if found else ()

    def _resolve_class(self, module: str, text: str) -> tuple[str, str] | None:
        """Resolve a class-name text to ``(module, class qualname)``."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = text.split(".")
        if len(parts) == 1:
            if text in self._class_index.get(module, ()):
                return (module, text)
            imported = summary.imports.get(text)
            if imported:
                return self._imported_class(imported)
            return None
        root = summary.imports.get(parts[0])
        if root:
            return self._imported_class(".".join([root] + parts[1:]))
        if text in self._class_index.get(module, ()):
            return (module, text)
        return None

    def _imported_class(self, dotted: str) -> tuple[str, str] | None:
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:split])
            if mod in self.modules:
                qualname = ".".join(parts[split:])
                if qualname in self._class_index.get(mod, ()):
                    return (mod, qualname)
                return None
        return None

    def _resolve_imported(self, dotted: str) -> tuple[str, ...]:
        """Resolve "pkg.mod.name" / "pkg.mod.Class.method" across modules."""
        # Longest module prefix wins.
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                qualname = ".".join(parts[split:])
                found = self._function_in(module, qualname)
                if found:
                    return (found,)
                return ()
        return ()

    # -- reachability ------------------------------------------------------

    def callees_of(self, ident: str) -> tuple[str, ...]:
        info = self.functions.get(ident)
        if info is None:
            return ()
        out: list[str] = []
        for call in info.calls:
            out.extend(self.resolve(info.module, info.qualname, call.callee))
        return tuple(dict.fromkeys(out))

    def reachable_from(self, ident: str) -> frozenset[str]:
        """Transitive closure of :meth:`callees_of` (cycle-safe)."""
        seen: set[str] = set()
        frontier = [ident]
        while frontier:
            current = frontier.pop()
            for callee in self.callees_of(current):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)

    def waived(self, module: str, line: int, rule: str) -> bool:
        summary = self.modules.get(module)
        return summary is not None and summary.waived(line, rule)
