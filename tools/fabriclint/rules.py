"""The fabriclint rule catalog (FL001–FL006).

Each rule machine-enforces one discipline the fabric's security or
liveness argument leans on.  DESIGN.md section 15 is the prose
catalog; ``docs/ARCHITECTURE.md`` section 7 is the table form, and
``tools/check_docs.py`` keeps the table in sync with the
``rule_id``\\ s registered here.

Every rule embeds a known-bad and a known-good source pair
(``self_test_bad`` / ``self_test_good``) so ``run.py --self-test``
can prove the rule is live — a gate that cannot fail gates nothing
(the same contract ``check_regression.py --self-test`` honors for the
benchmark gate).
"""

from __future__ import annotations

import ast
from typing import Iterator

from fabriclint.engine import (
    FileContext,
    Finding,
    Rule,
    path_endswith,
    path_in_dirs,
)

__all__ = ["REGISTRY", "all_rules"]


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target, best effort (``a.b.c`` or ``c``)."""
    return _dotted(node.func)


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _ScopedWalker:
    """AST walk that tracks the class/function qualname stack and the
    enclosing ``try`` statements — the two pieces of context rules
    keep needing."""

    def __init__(self, tree: ast.AST) -> None:
        self.tree = tree

    def walk(self) -> Iterator[tuple[ast.AST, tuple[str, ...], list[ast.Try]]]:
        def visit(node, stack, tries):
            for child in ast.iter_child_nodes(node):
                child_stack = stack
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    child_stack = stack + (child.name,)
                child_tries = tries
                if isinstance(child, ast.Try):
                    child_tries = tries + [child]
                yield child, child_stack, child_tries
                yield from visit(child, child_stack, child_tries)

        yield from visit(self.tree, (), [])


def _catches(handler: ast.ExceptHandler, names: set[str]) -> bool:
    """Does this handler's exception expression mention any of
    ``names`` (bare handlers match everything)?"""
    if handler.type is None:
        return True
    nodes = (
        list(ast.walk(handler.type))
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
    return False


# --------------------------------------------------------------------------
# FL001 — trust boundary
# --------------------------------------------------------------------------


class TrustBoundaryRule(Rule):
    """No signing/private-key API reachable from untrusted modules.

    The verify-only discipline from PR 2: ``edge_server.py``,
    ``relay.py``, ``client.py`` and ``router.py`` run on machines the
    owner does not control.  If one of them can even *name* the
    private-key surface — :class:`DigestSigner`,
    :class:`SigningDigestEngine`, :class:`RSAPrivateKey`, keypair
    generation, or a ``.sign(...)`` call — the "edges need no trust"
    argument is one refactor away from false.
    """

    rule_id = "FL001"
    title = "trust boundary: no signing API in untrusted modules"
    rationale = (
        "edges/relays/clients verify; only the central signs (PR 2)"
    )

    UNTRUSTED = (
        "repro/edge/edge_server.py",
        "repro/edge/relay.py",
        "repro/edge/client.py",
        "repro/edge/router.py",
    )
    BANNED_NAMES = {
        "DigestSigner",
        "SigningDigestEngine",
        "RSAPrivateKey",
        "RSAKeyPair",
        "generate_keypair",
    }
    # Modules whose plain import hands over the whole private surface.
    BANNED_MODULES = {"repro.crypto.rsa"}
    BANNED_ATTRS = {"sign", "sign_value", "sign_tuple", "private", "private_key"}

    self_test_bad = (
        "repro/edge/edge_server.py",
        "from repro.crypto.signatures import DigestSigner\n"
        "import repro.crypto.rsa\n"
        "def refresh(keypair, engine, value):\n"
        "    key = keypair.private\n"
        "    return engine.sign(value)\n",
    )
    self_test_good = (
        "repro/edge/edge_server.py",
        "from repro.crypto.signatures import DigestVerifier, SignedDigest\n"
        "def check(verifier, signed, expected):\n"
        "    return verifier.verify_value(signed, expected)\n",
    )

    def applies_to(self, relpath: str) -> bool:
        return path_endswith(relpath, self.UNTRUSTED)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in self.BANNED_NAMES:
                        yield ctx.finding(
                            self,
                            node,
                            f"import of signing API {alias.name!r} in an "
                            "untrusted module (verify-only discipline)",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.BANNED_MODULES:
                        yield ctx.finding(
                            self,
                            node,
                            f"import of private-key module {alias.name!r} "
                            "in an untrusted module",
                        )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.BANNED_NAMES:
                    yield ctx.finding(
                        self,
                        node,
                        f"reference to signing API {node.id!r} in an "
                        "untrusted module",
                    )
            elif isinstance(node, ast.Attribute):
                if node.attr in self.BANNED_ATTRS:
                    yield ctx.finding(
                        self,
                        node,
                        f"private-key attribute access '.{node.attr}' in an "
                        "untrusted module",
                    )


# --------------------------------------------------------------------------
# FL002 — exception hygiene
# --------------------------------------------------------------------------


class ExceptionHygieneRule(Rule):
    """Broad ``except`` handlers must stay visible.

    Locks in PR 9's silent-swallow sweep: a handler that catches
    ``Exception``/``BaseException`` (or everything, bare) inside
    ``repro/edge/`` or ``repro/chaos/`` must re-raise, route through
    :mod:`repro.edge.telemetry`, or carry an explicit suppression.
    Narrow typed handlers (``except OSError: pass`` on a best-effort
    close) are deliberate control flow and stay out of scope — the
    danger PR 9 swept is the broad catch that swallows *unexpected*
    errors into the same silence as routine connection resets.
    """

    rule_id = "FL002"
    title = "exception hygiene: broad handlers re-raise or hit telemetry"
    rationale = "PR 9's silent-swallow sweep, kept swept"

    SCOPES = ("repro/edge/", "repro/chaos/")
    BROAD = {"Exception", "BaseException"}

    self_test_bad = (
        "repro/edge/handlers.py",
        "def pump(sock):\n"
        "    try:\n"
        "        sock.flush()\n"
        "    except Exception:\n"
        "        pass\n",
    )
    self_test_good = (
        "repro/edge/handlers.py",
        "from repro.edge import telemetry\n"
        "def pump(sock):\n"
        "    try:\n"
        "        sock.flush()\n"
        "    except OSError:\n"
        "        pass  # torn socket: expected, narrow\n"
        "    except Exception as exc:\n"
        "        telemetry.note('handlers.pump.unexpected', exc)\n"
        "    try:\n"
        "        sock.close()\n"
        "    except Exception as exc:\n"
        "        raise RuntimeError('close failed') from exc\n",
    )

    def applies_to(self, relpath: str) -> bool:
        return path_in_dirs(relpath, self.SCOPES)

    @staticmethod
    def _is_compliant(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name == "telemetry.note" or name.endswith(
                    ".telemetry.note"
                ) or name == "note":
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _catches(node, self.BROAD):
                continue
            if self._is_compliant(node):
                continue
            caught = (
                ast.unparse(node.type) if node.type is not None else "<bare>"
            )
            yield ctx.finding(
                self,
                node,
                f"broad handler ({caught}) neither re-raises nor routes "
                "through repro.edge.telemetry — unexpected errors vanish",
            )


# --------------------------------------------------------------------------
# FL003 — determinism
# --------------------------------------------------------------------------


class DeterminismRule(Rule):
    """Chaos/workload/bench code must be a pure function of its seed.

    The chaos battery's replay contract (DESIGN.md section 14) and the
    benchmark regression gate both depend on it: ``time.time`` /
    ``datetime.now`` / the module-level ``random.*`` RNG make a
    "deterministic" trace quietly machine-dependent.  Seeded
    ``random.Random(seed)`` instances are the sanctioned source of
    randomness.  In ``benchmarks/`` only the RNG ban applies —
    benchmarks *print* wall-clock timings, but every gated series is a
    deterministic count, so clocks are fine and unseeded randomness is
    not.
    """

    rule_id = "FL003"
    title = "determinism: no wall clock / unseeded RNG in seeded paths"
    rationale = "chaos replay + benchmark gates are pure functions of seed"

    FULL_SCOPES = ("repro/chaos/", "repro/workloads/")
    RNG_ONLY_SCOPES = ("benchmarks/",)
    WALL_CLOCK = {"time.time", "time.time_ns"}
    DATETIME_ATTRS = {"now", "utcnow", "today"}
    DATETIME_OWNERS = {"datetime", "date"}
    RNG_ALLOWED = {"Random", "SystemRandom"}

    self_test_bad = (
        "repro/chaos/storm.py",
        "import random\n"
        "import time\n"
        "from datetime import datetime\n"
        "def schedule(n):\n"
        "    started = time.time()\n"
        "    stamp = datetime.now()\n"
        "    return [random.randint(0, n) for _ in range(n)], started, stamp\n",
    )
    self_test_good = (
        "repro/chaos/storm.py",
        "import random\n"
        "import time\n"
        "def schedule(n, seed):\n"
        "    rng = random.Random(seed)\n"
        "    deadline = time.monotonic() + 1.0\n"
        "    return [rng.randint(0, n) for _ in range(n)], deadline\n",
    )

    def applies_to(self, relpath: str) -> bool:
        return path_in_dirs(
            relpath, self.FULL_SCOPES + self.RNG_ONLY_SCOPES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        clock_banned = path_in_dirs(ctx.relpath, self.FULL_SCOPES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in self.RNG_ALLOWED:
                            yield ctx.finding(
                                self,
                                node,
                                f"'from random import {alias.name}' uses the "
                                "unseeded module-level RNG; use "
                                "random.Random(seed)",
                            )
                elif clock_banned and node.module == "time":
                    for alias in node.names:
                        if alias.name in ("time", "time_ns"):
                            yield ctx.finding(
                                self,
                                node,
                                "wall-clock import 'from time import "
                                f"{alias.name}' in a seeded path",
                            )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            dotted = _dotted(node)
            if dotted.startswith("random."):
                tail = dotted.split(".", 1)[1]
                if "." not in tail and tail not in self.RNG_ALLOWED:
                    yield ctx.finding(
                        self,
                        node,
                        f"module-level RNG call 'random.{tail}' — seed a "
                        "random.Random(seed) instance instead",
                    )
            if not clock_banned:
                continue
            if dotted in self.WALL_CLOCK:
                yield ctx.finding(
                    self,
                    node,
                    f"wall clock '{dotted}' in a seeded path — use "
                    "logical ticks (or time.monotonic for local deadlines)",
                )
            elif (
                node.attr in self.DATETIME_ATTRS
                and _dotted(node.value).split(".")[-1] in self.DATETIME_OWNERS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"wall clock '{dotted}' in a seeded path",
                )


# --------------------------------------------------------------------------
# FL004 — reactor discipline
# --------------------------------------------------------------------------


class ReactorDisciplineRule(Rule):
    """Nothing on the reactor thread may block.

    The single-threaded event loop (PR 6) sustains thousands of edges
    precisely because no callback ever blocks: one ``time.sleep``, one
    blocking ``recv``, one un-timed lock acquisition and every
    connected edge stalls together.  Scope: the whole of
    ``event_loop.py`` plus the :class:`FanoutEngine` class and its two
    frame sources, :class:`CentralServer` and :class:`RelayServer`
    (the engine's pump/settle paths run on the reactor and call into
    the source's payload and feedback methods; a relay's socket
    serving functions outside the class may block on the handshake).
    A ``recv``/``accept``-family call is allowed when its
    enclosing ``try`` catches ``BlockingIOError`` — that is the
    positive proof the socket is non-blocking.
    """

    rule_id = "FL004"
    title = "reactor discipline: no blocking calls on the event loop"
    rationale = "one blocked callback stalls every connected edge (PR 6)"

    MODULE_SCOPES = ("repro/edge/event_loop.py",)
    CLASS_SCOPES = {
        "repro/edge/fanout.py": {"FanoutEngine"},
        "repro/edge/central.py": {"CentralServer"},
        "repro/edge/relay.py": {"RelayServer"},
    }
    BLOCKING_SOCKET_ATTRS = {
        "recv",
        "recv_into",
        "recvfrom",
        "accept",
        "connect",
        "sendall",
        "makefile",
    }
    UNTIMED_WAIT_ATTRS = {"acquire", "wait", "join"}

    self_test_bad = (
        "repro/edge/event_loop.py",
        "import subprocess\n"
        "import time\n"
        "def pump(sock, lock):\n"
        "    time.sleep(0.1)\n"
        "    data = sock.recv(4096)\n"
        "    lock.acquire()\n"
        "    subprocess.run(['true'])\n"
        "    return data\n",
    )
    self_test_good = (
        "repro/edge/event_loop.py",
        "def pump(sock, lock):\n"
        "    try:\n"
        "        data = sock.recv(4096)\n"
        "    except (BlockingIOError, InterruptedError):\n"
        "        return b''\n"
        "    if not lock.acquire(timeout=1.0):\n"
        "        return b''\n"
        "    try:\n"
        "        return data\n"
        "    finally:\n"
        "        lock.release()\n",
    )

    def applies_to(self, relpath: str) -> bool:
        if path_endswith(relpath, self.MODULE_SCOPES):
            return True
        return any(
            path_endswith(relpath, (suffix,)) for suffix in self.CLASS_SCOPES
        )

    def _in_scope(self, relpath: str, stack: tuple[str, ...]) -> bool:
        if path_endswith(relpath, self.MODULE_SCOPES):
            return True
        for suffix, classes in self.CLASS_SCOPES.items():
            if path_endswith(relpath, (suffix,)):
                return bool(set(stack) & classes)
        return False

    @staticmethod
    def _nonblocking_proof(tries: list[ast.Try]) -> bool:
        for stmt in tries:
            for handler in stmt.handlers:
                if _catches(handler, {"BlockingIOError", "InterruptedError"}):
                    return True
        return False

    @staticmethod
    def _has_timeout(node: ast.Call) -> bool:
        if any(kw.arg == "timeout" for kw in node.keywords):
            return True
        if any(
            kw.arg == "blocking"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        ):
            return True
        # Positional timeout: Lock.acquire(False), Event.wait(0.1),
        # Thread.join(5) all take it first (after self).
        return bool(node.args)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, stack, tries in _ScopedWalker(ctx.tree).walk():
            if not self._in_scope(ctx.relpath, stack):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                module = getattr(node, "module", None)
                if "subprocess" in names or module == "subprocess":
                    yield ctx.finding(
                        self,
                        node,
                        "subprocess in a reactor module — process spawns "
                        "block the loop",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in ("time.sleep", "sleep"):
                yield ctx.finding(
                    self,
                    node,
                    "time.sleep on the reactor path stalls every "
                    "connected edge",
                )
            elif name.startswith("subprocess."):
                yield ctx.finding(
                    self, node, f"blocking call '{name}' on the reactor path"
                )
            elif isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in self.BLOCKING_SOCKET_ATTRS:
                    if not self._nonblocking_proof(tries):
                        yield ctx.finding(
                            self,
                            node,
                            f"'.{attr}()' without a BlockingIOError handler "
                            "— on the reactor thread every socket op must "
                            "be provably non-blocking",
                        )
                elif attr in self.UNTIMED_WAIT_ATTRS:
                    if not self._has_timeout(node):
                        yield ctx.finding(
                            self,
                            node,
                            f"un-timed '.{attr}()' can park the reactor "
                            "forever — pass a timeout",
                        )


# --------------------------------------------------------------------------
# FL005 — cursor monotonicity
# --------------------------------------------------------------------------


class CursorMonotonicityRule(Rule):
    """Replication cursors move only through the monotonic helpers.

    The PR 5 / PR 8 regression class: a delayed, duplicated, or
    reordered ack that writes ``acked_lsns``/``acked_epochs``
    *directly* can rewind a cursor, and a rewound cursor silently
    re-ships (or worse, silently skips) replication traffic.  All
    mutation therefore lives in three audited sites —
    ``FanoutEngine.attach`` (handshake resume),
    ``FanoutEngine._advance_cursor`` (the clamp-and-compare apply),
    and ``FanoutEngine._send_snapshot`` (the documented rewind-heal
    drop).  Everything else reads.
    """

    rule_id = "FL005"
    title = "cursor monotonicity: acked_lsns/epochs only via helpers"
    rationale = "direct cursor writes re-created the PR 5/PR 8 rewind bug"

    CURSOR_ATTRS = {"acked_lsns", "acked_epochs"}
    MUTATING_METHODS = {"pop", "clear", "update", "setdefault", "popitem"}
    ALLOWED_QUALNAMES = {
        "FanoutEngine.attach",
        "FanoutEngine._advance_cursor",
        "FanoutEngine._send_snapshot",
    }

    self_test_bad = (
        "repro/edge/fanout.py",
        "class FanoutEngine:\n"
        "    def on_ack(self, peer, table, lsn):\n"
        "        peer.acked_lsns[table] = lsn\n"
        "        peer.acked_epochs.pop(table, None)\n",
    )
    self_test_good = (
        "repro/edge/fanout.py",
        "class FanoutEngine:\n"
        "    def _advance_cursor(self, peer, table, lsn, epoch):\n"
        "        current = peer.acked_lsns.get(table)\n"
        "        if current is None or lsn > current:\n"
        "            peer.acked_lsns[table] = lsn\n"
        "            peer.acked_epochs[table] = epoch\n"
        "    def on_ack(self, peer, table, lsn, epoch):\n"
        "        self._advance_cursor(peer, table, lsn, epoch)\n"
        "        return peer.acked_lsns.get(table)\n",
    )

    def applies_to(self, relpath: str) -> bool:
        # Any scanned file: a cursor write outside the engine would be
        # an even larger breach than one inside it.
        return relpath.endswith(".py")

    def _allowed(self, stack: tuple[str, ...]) -> bool:
        qualname = ".".join(stack)
        for allowed in self.ALLOWED_QUALNAMES:
            if qualname == allowed or qualname.startswith(allowed + "."):
                return True
        return False

    def _is_cursor_attr(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr in self.CURSOR_ATTRS
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, stack, _tries in _ScopedWalker(ctx.tree).walk():
            if self._allowed(stack):
                continue
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                base = (
                    target.value
                    if isinstance(target, ast.Subscript)
                    else target
                )
                if self._is_cursor_attr(base):
                    yield ctx.finding(
                        self,
                        node,
                        f"direct write to '.{base.attr}' outside the "
                        "monotonic-apply helpers — use "
                        "FanoutEngine._advance_cursor",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATING_METHODS
                and self._is_cursor_attr(node.func.value)
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"mutating call '.{node.func.attr}()' on "
                    f"'.{node.func.value.attr}' outside the monotonic-apply "
                    "helpers",
                )


# --------------------------------------------------------------------------
# FL006 — a class is built by its constructor
# --------------------------------------------------------------------------


class ConstructorOnlyRule(Rule):
    """No object in ``repro`` is made behind its constructor's back.

    ``Cls.__new__(Cls)`` followed by hand-set fields skips every check
    ``__init__`` makes: a snapshot decoder that built its trees that
    way installed a replica whose unsigned fan-out header no
    ``BPlusTree`` could have, and the edge acked deltas onto it.  A
    tree is built by ``VBTree(...)`` / ``VBTree.build`` and restored by
    the ``restore`` classmethods, which call the constructor.  A
    ``__new__`` call inside a ``def __new__`` body (``super().__new__``)
    is how a class builds itself, and stays allowed.
    """

    rule_id = "FL006"
    title = "a class is built by its constructor: no .__new__( calls"
    rationale = "hand-built replica trees skipped the fan-out check"

    self_test_bad = (
        "repro/core/wire.py",
        "def restore(cls, fields):\n"
        "    tree = cls.__new__(cls)\n"
        "    tree.__dict__.update(fields)\n"
        "    return tree\n",
    )
    self_test_good = (
        "repro/core/wire.py",
        "class Extreme:\n"
        "    def __new__(cls, sign):\n"
        "        self = super().__new__(cls)\n"
        "        self.sign = sign\n"
        "        return self\n"
        "def restore(cls, fields):\n"
        "    return cls(**fields)\n",
    )

    def applies_to(self, relpath: str) -> bool:
        return path_in_dirs(relpath, ("repro/",))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, stack, _tries in _ScopedWalker(ctx.tree).walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and "__new__" not in stack
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"'{_call_name(node)}(...)' builds an object without "
                    "its constructor — call the class or a classmethod "
                    "that does",
                )


REGISTRY: tuple[Rule, ...] = (
    TrustBoundaryRule(),
    ExceptionHygieneRule(),
    DeterminismRule(),
    ReactorDisciplineRule(),
    CursorMonotonicityRule(),
    ConstructorOnlyRule(),
)


def all_rules() -> tuple[Rule, ...]:
    """The registered rule instances, FL-id order."""
    return REGISTRY
