"""Static concurrency verification: ``repro racecheck``.

PR 4 gave the microcode datapath a static verifier; this module gives
the *threaded control plane* (scheduler, supervisor, caches, journal,
accounting) the same treatment.  It parses repro's own Python source
with :mod:`ast`, discovers every lock the code declares (``threading``
constructors or the :mod:`repro.verify.lockdep` factories), reads the
``# guarded-by:`` annotation convention, and checks the discipline:

======  ==============================================================
code    meaning
======  ==============================================================
RS701   shared state mutated (or guard-requiring helper called)
        outside its declared lock scope
RS702   lock-acquisition-order cycle in the inter-procedural lock
        graph -- deadlock potential
RS703   ``Condition.wait`` not re-testing a predicate (no enclosing
        non-constant ``while``)
RS704   ``wait``/``notify``/``notify_all`` on a condition whose lock
        is not held
RS705   blocking call (fsync, sleep, join, subprocess, event wait,
        ``compile_*``) while holding a lock
RS706   annotation drift -- ``guarded-by`` names a lock that does not
        exist
======  ==============================================================

Annotation convention
---------------------

* ``self.attr = ...  # guarded-by: _lock`` on the declaring assignment
  (usually in ``__init__``, or on a dataclass field) declares that
  every later mutation of ``self.attr`` must hold ``self._lock``.
* ``def helper(self):  # guarded-by: _lock`` on a ``def`` line declares
  a precondition: callers must already hold the lock (the body is then
  analyzed as if the lock were held).
* ``# lock-blocking-ok: <reason>`` on a line suppresses RS705 there --
  for the rare blocking call that is *deliberately* under a lock (the
  journal's durability fsync).

Lock identity is class-qualified (``Scheduler._cond``), matching the
names the lockdep runtime uses, so the statically predicted graph from
:func:`predicted_lock_graph` and the observed acquisition DAG are
directly comparable via :meth:`LockdepRegistry.cross_check`.

The analysis is deliberately lexical and conservative-but-quiet: only
declared locks form graph nodes, only annotated state is guard-checked,
and RS705 is intraprocedural -- so unannotated modules produce zero
noise and every diagnostic on the annotated tree is actionable.
"""

from __future__ import annotations

import ast
import difflib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..fortran.errors import Diagnostic, SourceLocation, Span

#: ``# guarded-by: <lock>`` trailing/preceding-line annotation.
GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")
#: ``# lock-blocking-ok[: reason]`` RS705 suppression.
BLOCKING_OK_RE = re.compile(r"#\s*lock-blocking-ok\b")

#: Constructor / factory callables that create a lock.
_LOCK_CTORS = {"Lock", "RLock", "Condition", "lock", "rlock", "condition"}
#: The subset that creates a condition variable.
_COND_CTORS = {"Condition", "condition"}
#: Receivers a lock factory may hang off (``threading.Lock()``,
#: ``lockdep.rlock("...")``).
_FACTORY_MODULES = {"threading", "lockdep"}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "appendleft", "extend", "insert", "remove", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "sort",
}

#: ``module.name`` calls that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("os", "fsync"),
    ("os", "fdatasync"),
    ("time", "sleep"),
}
_BLOCKING_MODULES = {"subprocess"}
#: Function-name prefixes treated as blocking (whole-program compiles).
_BLOCKING_NAME_PREFIXES = ("compile_",)


# ---------------------------------------------------------------------------
# results


@dataclass
class FileReport:
    """Diagnostics for one analyzed source file."""

    path: str
    source: str
    diagnostics: List[Diagnostic] = field(default_factory=list)


@dataclass
class RaceCheckResult:
    """Everything one racecheck run learned."""

    files: List[FileReport]
    #: statically predicted lock-order graph: lock -> sorted successors.
    lock_graph: Dict[str, Tuple[str, ...]]
    #: every declared lock id (``Class.attr`` or module-global name).
    locks: Tuple[str, ...]

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for report in self.files:
            out.extend(report.diagnostics)
        return out

    @property
    def clean(self) -> bool:
        return not self.diagnostics


# ---------------------------------------------------------------------------
# per-module harvest


@dataclass
class _ClassInfo:
    name: str
    module: str
    locks: Set[str] = field(default_factory=set)
    conditions: Set[str] = field(default_factory=set)
    #: attr -> (raw guard name, decl line) from ``# guarded-by:``.
    guards: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: attr -> class name (inferred types, for receiver resolution).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class _FuncInfo:
    key: Tuple[Optional[str], str]  # (class name or None, func name)
    path: str
    #: resolved lock ids the ``def``-line guard annotation requires.
    preconditions: List[str] = field(default_factory=list)
    #: (lock id, held snapshot, line) of each direct acquisition.
    acquires: List[Tuple[str, Tuple[str, ...], int]] = field(default_factory=list)
    #: (callee key, held snapshot, line) of each resolvable call.
    calls: List[Tuple[Tuple[Optional[str], str], Tuple[str, ...], int]] = field(
        default_factory=list
    )


@dataclass
class _ModuleInfo:
    path: str
    source: str
    tree: ast.Module
    #: line -> raw guard name for ``# guarded-by:`` comments.
    guard_comments: Dict[int, str] = field(default_factory=dict)
    #: lines whose content is only a comment (annotation may precede
    #: the statement it describes).
    comment_only_lines: Set[int] = field(default_factory=set)
    #: lines carrying ``# lock-blocking-ok``.
    blocking_ok_lines: Set[int] = field(default_factory=set)
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    #: module-global lock names declared at module level.
    module_locks: Set[str] = field(default_factory=set)
    module_conditions: Set[str] = field(default_factory=set)
    #: global name -> (raw guard name, decl line).
    module_guards: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: global name -> class name (``_PLAN_CACHE = SyncCache(...)``).
    global_types: Dict[str, str] = field(default_factory=dict)
    #: (class name or None, FunctionDef) of every analyzable function.
    functions: List[Tuple[Optional[str], ast.FunctionDef]] = field(
        default_factory=list
    )


def _scan_comments(info: _ModuleInfo) -> None:
    reader = io.StringIO(info.source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return
    lines = info.source.split("\n")
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line_no = tok.start[0]
        match = GUARD_RE.search(tok.string)
        if match:
            name = match.group(1)
            if name.startswith("self."):
                name = name[len("self."):]
            info.guard_comments[line_no] = name
        if BLOCKING_OK_RE.search(tok.string):
            info.blocking_ok_lines.add(line_no)
        text = lines[line_no - 1] if line_no <= len(lines) else ""
        if text.strip().startswith("#"):
            info.comment_only_lines.add(line_no)


def _guard_for_line(info: _ModuleInfo, line: int) -> Optional[Tuple[str, int]]:
    """The guard annotation attached to the statement at ``line``.

    Trailing comments win; a comment-only line directly above also
    counts, so long annotations can sit on their own line.
    """
    if line in info.guard_comments:
        return info.guard_comments[line], line
    prev = line - 1
    if prev in info.guard_comments and prev in info.comment_only_lines:
        return info.guard_comments[prev], prev
    return None


def _is_lock_factory_call(node: ast.AST) -> Optional[str]:
    """The ctor name when ``node`` creates a lock; else None.

    Recognizes direct calls (``threading.Lock()``,
    ``lockdep.rlock("n")``), calls nested inside wrappers
    (``field(default_factory=lambda: lockdep.condition("n"))``) and
    *uncalled* constructor references
    (``field(default_factory=threading.RLock)``).
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            if (
                isinstance(sub.value, ast.Name)
                and sub.value.id in _FACTORY_MODULES
                and sub.attr in _LOCK_CTORS
            ):
                return sub.attr
        elif isinstance(sub, ast.Call):
            func = sub.func
            # bare names only count for the lowercase lockdep factories;
            # a local class named ``Lock`` is someone else's problem.
            if isinstance(func, ast.Name) and func.id in (
                "lock", "rlock", "condition"
            ):
                return func.id
    return None


def _annotation_class_names(node: Optional[ast.AST]) -> List[str]:
    """Class names mentioned in a type annotation (``Optional[X]`` -> X)."""
    if node is None:
        return []
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in (
            "Optional", "Union", "None", "List", "Dict", "Tuple", "Set",
            "Sequence", "Mapping", "Iterable", "Callable", "int", "str",
            "float", "bool", "bytes", "object",
        ):
            names.append(sub.id)
    return names


def _harvest_class(info: _ModuleInfo, node: ast.ClassDef) -> None:
    cls = _ClassInfo(name=node.name, module=info.path)
    info.classes[node.name] = cls

    def note_attr(attr: str, value: Optional[ast.AST], line: int,
                  annotation: Optional[ast.AST] = None) -> None:
        ctor = _is_lock_factory_call(value) if value is not None else None
        if ctor is not None:
            cls.locks.add(attr)
            if ctor in _COND_CTORS:
                cls.conditions.add(attr)
        guard = _guard_for_line(info, line)
        if guard is not None and attr not in cls.guards:
            cls.guards[attr] = guard
        if value is not None and isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                cls.attr_types.setdefault(attr, func.id)
        for name in _annotation_class_names(annotation):
            cls.attr_types.setdefault(attr, name)
            break

    # class-body fields (dataclass style)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            note_attr(stmt.target.id, stmt.value, stmt.lineno, stmt.annotation)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    note_attr(target.id, stmt.value, stmt.lineno)

    # ``self.X = ...`` in any method
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        info.functions.append((node.name, method))
        params: Dict[str, Optional[ast.AST]] = {}
        for arg in list(method.args.args) + list(method.args.kwonlyargs):
            params[arg.arg] = arg.annotation
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        note_attr(target.attr, stmt.value, stmt.lineno)
                        # ``self.X = param`` with an annotated param
                        if (
                            isinstance(stmt.value, ast.Name)
                            and stmt.value.id in params
                        ):
                            for name in _annotation_class_names(
                                params[stmt.value.id]
                            ):
                                cls.attr_types.setdefault(target.attr, name)
                                break
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    note_attr(
                        target.attr, stmt.value, stmt.lineno, stmt.annotation
                    )


def _harvest_module(path: str, source: str) -> Optional[_ModuleInfo]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    info = _ModuleInfo(path=path, source=source, tree=tree)
    _scan_comments(info)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            _harvest_class(info, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions.append((None, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                ctor = (
                    _is_lock_factory_call(stmt.value)
                    if stmt.value is not None
                    else None
                )
                if ctor is not None:
                    info.module_locks.add(target.id)
                    if ctor in _COND_CTORS:
                        info.module_conditions.add(target.id)
                guard = _guard_for_line(info, stmt.lineno)
                if guard is not None:
                    info.module_guards.setdefault(target.id, guard)
                if isinstance(stmt.value, ast.Call) and isinstance(
                    stmt.value.func, ast.Name
                ):
                    info.global_types.setdefault(target.id, stmt.value.func.id)
    return info


# ---------------------------------------------------------------------------
# the analyzer


class _Analyzer:
    def __init__(self, modules: List[_ModuleInfo]) -> None:
        self.modules = modules
        self.reports: Dict[str, FileReport] = {
            m.path: FileReport(path=m.path, source=m.source) for m in modules
        }
        #: class name -> _ClassInfo (corpus-wide).
        self.class_registry: Dict[str, _ClassInfo] = {}
        #: plain function name -> unique key, for cross-module calls.
        self.global_functions: Dict[str, Optional[Tuple[Optional[str], str]]] = {}
        self.functions: Dict[Tuple[Optional[str], str], _FuncInfo] = {}
        #: lock-order edges (u, v) -> (path, line) first witness.
        self.edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    # -- registry construction ----------------------------------------

    def build_registries(self) -> None:
        for module in self.modules:
            for cls in module.classes.values():
                self.class_registry.setdefault(cls.name, cls)
            for kind, func in module.functions:
                if kind is None:
                    if func.name in self.global_functions:
                        self.global_functions[func.name] = None  # ambiguous
                    else:
                        self.global_functions[func.name] = (None, func.name)

    def all_lock_ids(self) -> Set[str]:
        out: Set[str] = set()
        for cls in self.class_registry.values():
            out.update(f"{cls.name}.{attr}" for attr in cls.locks)
        for module in self.modules:
            out.update(module.module_locks)
        return out

    # -- diagnostics helpers ------------------------------------------

    def diag(
        self,
        module: _ModuleInfo,
        node: ast.AST,
        code: str,
        message: str,
        fixit: Optional[str] = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        end_line = getattr(node, "end_lineno", line) or line
        end_col = (getattr(node, "end_col_offset", col) or col) + 1
        self.reports[module.path].diagnostics.append(
            Diagnostic(
                severity="error",
                message=message,
                location=SourceLocation(line, col, module.path),
                code=code,
                span=Span(
                    SourceLocation(line, col, module.path),
                    SourceLocation(end_line, end_col, module.path),
                ),
                fixit=fixit,
            )
        )

    # -- guard resolution ---------------------------------------------

    def resolve_guard_quiet(
        self,
        module: _ModuleInfo,
        cls: Optional[_ClassInfo],
        raw: str,
    ) -> Optional[str]:
        """Resolve a raw guard name without diagnosing drift (drift is
        reported exactly once, at the declaration, by
        :meth:`check_annotation_drift`)."""
        name = raw.split(".")[-1] if raw.startswith("self.") else raw
        if cls is not None and name in cls.locks:
            return f"{cls.name}.{name}"
        if "." in raw:
            owner, attr = raw.rsplit(".", 1)
            owner_cls = self.class_registry.get(owner)
            if owner_cls is not None and attr in owner_cls.locks:
                return f"{owner}.{attr}"
        if name in module.module_locks:
            return name
        return None

    def resolve_guard(
        self,
        module: _ModuleInfo,
        cls: Optional[_ClassInfo],
        raw: str,
        line: int,
        what: str,
    ) -> Optional[str]:
        """Resolve a raw ``guarded-by`` name to a lock id; RS706 if bogus."""
        resolved = self.resolve_guard_quiet(module, cls, raw)
        if resolved is not None:
            return resolved
        name = raw.split(".")[-1] if raw.startswith("self.") else raw
        candidates: List[str] = sorted(
            (cls.locks if cls is not None else set()) | module.module_locks
        )
        hint = difflib.get_close_matches(name, candidates, n=1)
        fixit = f"did you mean `# guarded-by: {hint[0]}`?" if hint else (
            "declare the lock with threading.Lock()/lockdep.lock() or drop "
            "the annotation"
        )
        anchor = ast.Pass()
        anchor.lineno = line
        anchor.col_offset = 0
        anchor.end_lineno = line
        anchor.end_col_offset = 0
        self.diag(
            module,
            anchor,
            "RS706",
            f"guarded-by names unknown lock {raw!r} for {what} -- "
            f"annotation has drifted from the code",
            fixit,
        )
        return None

    # -- expression classification ------------------------------------

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def lock_id_of_expr(
        self, module: _ModuleInfo, cls: Optional[_ClassInfo], node: ast.AST
    ) -> Optional[str]:
        """The declared lock id an expression denotes, if any."""
        attr = self._self_attr(node)
        if attr is not None and cls is not None and attr in cls.locks:
            return f"{cls.name}.{attr}"
        if isinstance(node, ast.Name) and node.id in module.module_locks:
            return node.id
        return None

    def condition_id_of_expr(
        self, module: _ModuleInfo, cls: Optional[_ClassInfo], node: ast.AST
    ) -> Optional[str]:
        attr = self._self_attr(node)
        if attr is not None and cls is not None and attr in cls.conditions:
            return f"{cls.name}.{attr}"
        if isinstance(node, ast.Name) and node.id in module.module_conditions:
            return node.id
        return None

    def resolve_callee(
        self, module: _ModuleInfo, cls: Optional[_ClassInfo], call: ast.Call
    ) -> Optional[Tuple[Optional[str], str]]:
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = func.value
            # self.method(...)
            if isinstance(recv, ast.Name) and recv.id == "self" and cls is not None:
                if (cls.name, func.attr) in self.functions or any(
                    name == cls.name and f.name == func.attr
                    for m in self.modules
                    for name, f in m.functions
                ):
                    return (cls.name, func.attr)
                return None
            # self.attr.method(...) through an inferred attr type
            attr = self._self_attr(recv)
            if attr is not None and cls is not None:
                type_name = cls.attr_types.get(attr)
                if type_name in self.class_registry:
                    return (type_name, func.attr)
                return None
            if isinstance(recv, ast.Name):
                # ClassName.method(...) (classmethods)
                if recv.id in self.class_registry:
                    return (recv.id, func.attr)
                # GLOBAL.method(...) through a module-global's type
                type_name = module.global_types.get(recv.id)
                if type_name in self.class_registry:
                    return (type_name, func.attr)
            return None
        if isinstance(func, ast.Name):
            if func.id in self.class_registry:
                return (func.id, "__init__")
            local = (None, func.id)
            if any(
                kind is None and f.name == func.id
                for kind, f in module.functions
            ):
                return local
            return self.global_functions.get(func.id)
        return None

    @staticmethod
    def is_blocking_call(call: ast.Call) -> Optional[str]:
        """A short description when the call blocks, else None."""
        func = call.func
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name):
                if (recv.id, func.attr) in _BLOCKING_MODULE_CALLS:
                    return f"{recv.id}.{func.attr}()"
                if recv.id in _BLOCKING_MODULES:
                    return f"{recv.id}.{func.attr}()"
            if func.attr == "join" and not isinstance(recv, ast.Constant):
                # str.join takes an iterable; thread/process join takes
                # nothing or a numeric timeout.  Only flag the latter.
                plausible = all(
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, (int, float))
                    for arg in call.args
                ) and all(kw.arg == "timeout" for kw in call.keywords)
                if plausible and len(call.args) <= 1:
                    return ".join()"
        elif isinstance(func, ast.Name):
            if func.id.startswith(_BLOCKING_NAME_PREFIXES):
                return f"{func.id}()"
        return None

    # -- the per-function walk ----------------------------------------

    def walk_function(
        self,
        module: _ModuleInfo,
        cls_name: Optional[str],
        func: ast.FunctionDef,
        register: bool = True,
    ) -> None:
        cls = module.classes.get(cls_name) if cls_name else None
        key = (cls_name, func.name)
        finfo = _FuncInfo(key=key, path=module.path)

        guard = _guard_for_line(module, func.lineno)
        if guard is not None:
            resolved = self.resolve_guard(
                module, cls, guard[0], guard[1], f"def {func.name}()"
            )
            if resolved is not None:
                finfo.preconditions.append(resolved)

        exempt = cls is not None and func.name in (
            "__init__", "__post_init__", "__new__"
        )

        held: List[str] = list(finfo.preconditions)

        def required_lock(root_attr: Optional[str], root_global: Optional[str]
                          ) -> Optional[Tuple[str, str]]:
            """(lock id, what) a mutation of this root must hold."""
            if root_attr is not None and cls is not None and not exempt:
                guard = cls.guards.get(root_attr)
                if guard is not None:
                    lid = self.resolve_guard_quiet(module, cls, guard[0])
                    if lid is not None:
                        return lid, f"self.{root_attr}"
            if root_global is not None:
                guard = module.module_guards.get(root_global)
                if guard is not None:
                    lid = self.resolve_guard_quiet(module, cls, guard[0])
                    if lid is not None:
                        return lid, root_global
            return None

        def mutation_root(target: ast.AST) -> Tuple[Optional[str], Optional[str]]:
            """(self attr, module global) at the base of a store target."""
            node = target
            # unwrap subscript chains down to the base container
            while isinstance(node, ast.Subscript):
                node = node.value
            attr = self._self_attr(node)
            if attr is not None:
                return attr, None
            if isinstance(node, ast.Name):
                return None, node.id
            return None, None

        def check_mutation(target: ast.AST, where: ast.AST) -> None:
            attr, glob = mutation_root(target)
            req = required_lock(attr, glob)
            if req is None:
                return
            lid, what = req
            if lid in held:
                return
            lock_expr = lid.split(".")[-1]
            # Class lock ids are ``Class.attr``; module locks are bare.
            holder = f"self.{lock_expr}" if "." in lid else lid
            self.diag(
                module,
                where,
                "RS701",
                f"{what} is declared `guarded-by: {lock_expr}` but is "
                f"mutated without holding {lid}",
                f"wrap the mutation in `with {holder}:` (or move it "
                f"into a `# guarded-by: {lock_expr}` helper)",
            )

        def handle_call(call: ast.Call) -> None:
            func_expr = call.func
            # condition discipline (RS703 / RS704) -------------------
            if isinstance(func_expr, ast.Attribute) and func_expr.attr in (
                "wait", "wait_for", "notify", "notify_all"
            ):
                cond_id = self.condition_id_of_expr(
                    module, cls, func_expr.value
                )
                if cond_id is not None:
                    if cond_id not in held:
                        verb = (
                            "waited on" if func_expr.attr.startswith("wait")
                            else "notified"
                        )
                        recv = ast.unparse(func_expr.value)
                        self.diag(
                            module,
                            call,
                            "RS704",
                            f"condition {cond_id} {verb} without holding its "
                            f"lock -- {func_expr.attr}() outside `with {recv}:`"
                            " is a lost-wakeup race",
                            f"move the {func_expr.attr}() call inside "
                            f"`with {recv}:`",
                        )
                    elif func_expr.attr == "wait" and not while_stack:
                        recv = ast.unparse(func_expr.value)
                        self.diag(
                            module,
                            call,
                            "RS703",
                            f"{recv}.wait() is not re-testing a predicate: "
                            "no enclosing `while <predicate>:` loop -- a "
                            "spurious or stolen wakeup proceeds on a false "
                            "condition",
                            f"wrap the wait: `while not <predicate>: "
                            f"{recv}.wait()`",
                        )
                    # a condition wait/notify is not itself a blocking
                    # call for RS705 purposes -- wait releases the lock.
                    return
            # blocking under a lock (RS705) --------------------------
            if held:
                desc = self.is_blocking_call(call)
                if desc is None and isinstance(func_expr, ast.Attribute):
                    if func_expr.attr == "wait" and self.condition_id_of_expr(
                        module, cls, func_expr.value
                    ) is None:
                        # Event.wait / future.wait style blocking wait
                        desc = f"{ast.unparse(func_expr)}()"
                suppressed = call.lineno in module.blocking_ok_lines or (
                    call.lineno - 1 in module.blocking_ok_lines
                    and call.lineno - 1 in module.comment_only_lines
                )
                if desc is not None and not suppressed:
                    self.diag(
                        module,
                        call,
                        "RS705",
                        f"blocking call {desc} while holding "
                        f"{', '.join(held)} -- stalls every thread queued "
                        "on the lock",
                        "move the call outside the `with` block, or annotate "
                        "the line `# lock-blocking-ok: <reason>` if the "
                        "ordering is load-bearing",
                    )
            # mutator methods on guarded state (RS701) ---------------
            if isinstance(func_expr, ast.Attribute) and func_expr.attr in _MUTATORS:
                check_mutation(func_expr.value, call)
            # resolvable calls: record for the lock graph, and check
            # callee preconditions (RS701).
            callee = self.resolve_callee(module, cls, call)
            if callee is not None:
                finfo.calls.append((callee, tuple(held), call.lineno))
                callee_info = self.functions.get(callee)
                if callee_info is not None:
                    for pre in callee_info.preconditions:
                        if pre not in held:
                            cname = ".".join(x for x in callee if x)
                            self.diag(
                                module,
                                call,
                                "RS701",
                                f"call to {cname}() requires {pre} held "
                                "(declared `guarded-by` on its definition) "
                                "but the lock is not held here",
                                f"call {cname}() inside `with "
                                f"self.{pre.split('.')[-1]}:`",
                            )

        def scan_exprs(*nodes: Optional[ast.AST]) -> None:
            for node in nodes:
                if node is None:
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        handle_call(sub)

        while_stack: List[bool] = []

        def walk_stmts(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # nested defs execute later with their own holds
                    saved_held, saved_while = list(held), list(while_stack)
                    held.clear()
                    while_stack.clear()
                    walk_stmts(stmt.body)
                    held.extend(saved_held)
                    while_stack.extend(saved_while)
                    continue
                if isinstance(stmt, ast.ClassDef):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired: List[str] = []
                    for item in stmt.items:
                        scan_exprs(item.context_expr)
                        lid = self.lock_id_of_expr(
                            module, cls, item.context_expr
                        )
                        if lid is not None:
                            for holder in held:
                                if holder != lid:
                                    self.edges.setdefault(
                                        (holder, lid),
                                        (module.path, stmt.lineno),
                                    )
                            finfo.acquires.append(
                                (lid, tuple(held), stmt.lineno)
                            )
                            held.append(lid)
                            acquired.append(lid)
                    walk_stmts(stmt.body)
                    for lid in reversed(acquired):
                        held.remove(lid)
                    continue
                if isinstance(stmt, ast.While):
                    scan_exprs(stmt.test)
                    # ``while True:`` is a dispatch loop, not a predicate
                    # re-test -- it does not satisfy RS703.
                    is_predicate = not (
                        isinstance(stmt.test, ast.Constant)
                        and bool(stmt.test.value)
                    )
                    if is_predicate:
                        while_stack.append(True)
                    walk_stmts(stmt.body)
                    if is_predicate:
                        while_stack.pop()
                    walk_stmts(stmt.orelse)
                    continue
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    scan_exprs(stmt.iter, stmt.target)
                    walk_stmts(stmt.body)
                    walk_stmts(stmt.orelse)
                    continue
                if isinstance(stmt, ast.If):
                    scan_exprs(stmt.test)
                    walk_stmts(stmt.body)
                    walk_stmts(stmt.orelse)
                    continue
                if isinstance(stmt, ast.Try):
                    walk_stmts(stmt.body)
                    for handler in stmt.handlers:
                        walk_stmts(handler.body)
                    walk_stmts(stmt.orelse)
                    walk_stmts(stmt.finalbody)
                    continue
                # leaf statements: find mutations + calls
                if isinstance(stmt, ast.Assign):
                    scan_exprs(stmt.value)
                    for target in stmt.targets:
                        for sub in (
                            target.elts
                            if isinstance(target, (ast.Tuple, ast.List))
                            else [target]
                        ):
                            check_mutation(sub, stmt)
                elif isinstance(stmt, ast.AugAssign):
                    scan_exprs(stmt.value)
                    check_mutation(stmt.target, stmt)
                elif isinstance(stmt, ast.AnnAssign):
                    scan_exprs(stmt.value)
                    if stmt.value is not None:
                        check_mutation(stmt.target, stmt)
                elif isinstance(stmt, ast.Delete):
                    for target in stmt.targets:
                        check_mutation(target, stmt)
                        scan_exprs(target)
                elif isinstance(stmt, ast.Return):
                    scan_exprs(stmt.value)
                elif isinstance(stmt, ast.Expr):
                    scan_exprs(stmt.value)
                elif isinstance(stmt, (ast.Assert, ast.Raise)):
                    scan_exprs(*[v for v in ast.iter_child_nodes(stmt)])

        walk_stmts(func.body)
        if register:
            self.functions[key] = finfo

    # -- passes --------------------------------------------------------

    def run(self) -> None:
        self.build_registries()
        # pass 1: register preconditions so pass 2 can check call sites.
        for module in self.modules:
            for cls_name, func in module.functions:
                cls = module.classes.get(cls_name) if cls_name else None
                guard = _guard_for_line(module, func.lineno)
                finfo = _FuncInfo(key=(cls_name, func.name), path=module.path)
                if guard is not None:
                    name = guard[0]
                    if name.startswith("self."):
                        name = name[len("self."):]
                    if cls is not None and name in cls.locks:
                        finfo.preconditions.append(f"{cls.name}.{name}")
                    elif name in module.module_locks:
                        finfo.preconditions.append(name)
                    # unknown names diagnosed in pass 2 (RS706)
                self.functions[(cls_name, func.name)] = finfo
        # pass 2: the real walk (overwrites the stub _FuncInfo entries).
        for module in self.modules:
            for cls_name, func in module.functions:
                self.walk_function(module, cls_name, func)
        self.check_annotation_drift()
        self.build_lock_graph()

    def check_annotation_drift(self) -> None:
        """RS706 for declaration-site guards naming unknown locks."""
        for module in self.modules:
            for cls in module.classes.values():
                for attr, (raw, line) in sorted(cls.guards.items()):
                    if self.resolve_guard_quiet(module, cls, raw) is None:
                        self.resolve_guard(
                            module, cls, raw, line, f"self.{attr}"
                        )
            for name, (raw, line) in sorted(module.module_guards.items()):
                if self.resolve_guard_quiet(module, None, raw) is None:
                    self.resolve_guard(module, None, raw, line, name)

    def build_lock_graph(self) -> None:
        """Interprocedural edges + RS702 cycle detection."""
        # fixpoint: may_acquire(f) = direct acquires + callees'.
        may_acquire: Dict[Tuple[Optional[str], str], Set[str]] = {
            key: {lid for lid, _, _ in finfo.acquires}
            for key, finfo in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, finfo in self.functions.items():
                acc = may_acquire[key]
                before = len(acc)
                for callee, _, _ in finfo.calls:
                    # preconditions are *held by the caller*, not
                    # acquired by the callee -- only real acquisitions
                    # propagate up.
                    acc |= may_acquire.get(callee, set())
                if len(acc) != before:
                    changed = True
        # call-through edges: held at the call site -> whatever the
        # callee may acquire.
        for key, finfo in self.functions.items():
            for callee, held, line in finfo.calls:
                if not held:
                    continue
                for lid in may_acquire.get(callee, set()):
                    for holder in held:
                        if holder != lid:
                            self.edges.setdefault(
                                (holder, lid), (finfo.path, line)
                            )
        self.report_cycles()

    def report_cycles(self) -> None:
        adjacency: Dict[str, Set[str]] = {}
        for (u, v) in self.edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set())
        # iterative 3-color DFS for one witness cycle per SCC-ish region
        WHITE, GREY, BLACK = 0, 1, 2
        color = {n: WHITE for n in adjacency}
        parent: Dict[str, str] = {}
        cycles: List[List[str]] = []
        for root in sorted(adjacency):
            if color[root] != WHITE:
                continue
            stack = [(root, iter(sorted(adjacency[root])))]
            color[root] = GREY
            while stack:
                node, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if color[succ] == GREY:
                        cycle = [node]
                        walk = node
                        while walk != succ:
                            walk = parent[walk]
                            cycle.append(walk)
                        cycle.reverse()
                        cycles.append(cycle)
                        continue
                    if color[succ] == WHITE:
                        color[succ] = GREY
                        parent[succ] = node
                        stack.append((succ, iter(sorted(adjacency[succ]))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        seen: Set[Tuple[str, ...]] = set()
        for cycle in cycles:
            canon = min(
                tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))
            )
            if canon in seen:
                continue
            seen.add(canon)
            chain = " -> ".join(list(canon) + [canon[0]])
            witnesses = []
            ring = list(canon) + [canon[0]]
            first_witness: Optional[Tuple[str, int]] = None
            for u, v in zip(ring, ring[1:]):
                witness = self.edges.get((u, v))
                if witness is not None:
                    if first_witness is None:
                        first_witness = witness
                    witnesses.append(f"{v} after {u} at {witness[0]}:{witness[1]}")
            path, line = first_witness if first_witness else ("<unknown>", 1)
            module = next(
                (m for m in self.modules if m.path == path), self.modules[0]
            )
            anchor = ast.Pass()
            anchor.lineno = line
            anchor.col_offset = 0
            anchor.end_lineno = line
            anchor.end_col_offset = 0
            self.diag(
                module,
                anchor,
                "RS702",
                f"lock acquisition order cycle: {chain} -- two threads "
                "taking these locks in opposite orders deadlock "
                f"({'; '.join(witnesses)})",
                "pick one global order for these locks and re-order the "
                "inner acquisition",
            )

    def lock_graph(self) -> Dict[str, Tuple[str, ...]]:
        adjacency: Dict[str, Set[str]] = {}
        for (u, v) in self.edges:
            adjacency.setdefault(u, set()).add(v)
        return {u: tuple(sorted(vs)) for u, vs in sorted(adjacency.items())}


# ---------------------------------------------------------------------------
# public API


def analyze_sources(sources: Sequence[Tuple[str, str]]) -> RaceCheckResult:
    """Run the full analysis over ``(path, source)`` pairs."""
    modules = []
    for path, source in sources:
        info = _harvest_module(path, source)
        if info is not None:
            modules.append(info)
    if not modules:
        return RaceCheckResult(files=[], lock_graph={}, locks=())
    analyzer = _Analyzer(modules)
    analyzer.run()
    files = [analyzer.reports[m.path] for m in modules]
    for report in files:
        report.diagnostics.sort(
            key=lambda d: (d.location.line, d.location.column, d.code or "")
        )
    return RaceCheckResult(
        files=files,
        lock_graph=analyzer.lock_graph(),
        locks=tuple(sorted(analyzer.all_lock_ids())),
    )


def collect_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                str(p) for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(str(path))
    return sorted(dict.fromkeys(out))


def racecheck_paths(paths: Sequence[str]) -> RaceCheckResult:
    """Analyze every ``.py`` file under the given files/directories."""
    sources = []
    for file_path in collect_python_files(paths):
        try:
            text = Path(file_path).read_text(encoding="utf-8")
        except OSError:
            continue
        sources.append((file_path, text))
    return analyze_sources(sources)


#: Root of repro's own source tree, the default racecheck target.
DEFAULT_ROOT = Path(__file__).resolve().parents[1]

_PREDICTED_CACHE: Dict[str, Dict[str, Tuple[str, ...]]] = {}


def predicted_lock_graph(
    root: Optional[str] = None,
) -> Dict[str, Tuple[str, ...]]:
    """The statically predicted lock graph of a source tree.

    Memoized per root: the chaos campaign cross-checks every trial
    against this graph and the source does not change mid-process.
    """
    target = str(root) if root is not None else str(DEFAULT_ROOT)
    cached = _PREDICTED_CACHE.get(target)
    if cached is None:
        cached = racecheck_paths([target]).lock_graph
        _PREDICTED_CACHE[target] = cached
    return cached
