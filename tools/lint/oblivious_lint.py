#!/usr/bin/env python3
"""Secret-taint oblivious-leakage linter for the IncShrink tree.

Statically flags code whose *observable* behavior — branch direction, loop
trip count, memory index, allocation size — depends on secret-shared data
without passing a sanctioned declassification point. This is the
compile-time half of the obliviousness argument; the runtime half is
tests/oblivious_invariants_test.cc, which can only witness the inputs it
happens to run.

Taint model (seeded from tools/lint/secret_api.toml):
  * values of secret types (WordShares, SharedRows, ...) and results of
    secret-producing functions (Recover*, KeyOutOfOrder, ...) are SECRET;
  * a single share of a (2,2)-XOR sharing is uniform noise, tracked as
    HALF0/HALF1; an expression mixing both halves reconstructs the secret
    and is promoted to SECRET;
  * declassifiers (Reveal, the DP release clamp) and public metadata
    accessors (.size()/.width()/...) launder taint to PUBLIC.

Sinks: if/while/switch conditions, for-loop conditions, ternary conditions,
array subscripts, and allocation/row-count sizes (resize/reserve/Reserve/
Truncate/SplitPrefix arguments, new[] extents).

Engines: `--engine libclang` tokenizes each TU with clang.cindex when the
bindings are importable (macro-faithful); the default deterministic
tokenizer/brace-tracking engine needs nothing beyond the Python stdlib, so
CI carries no new hard dependency. Both engines feed the same analysis.

Suppressions mirror the src/net `net-timeout-ok` idiom:
    // oblivious-ok: <reason>        (same line, or next code line when the
                                      comment stands alone)
    // oblivious-ok-begin: <reason>  ... // oblivious-ok-end   (region)
Every marker is counted and printed so suppression drift stays visible; a
marker that suppresses no finding is stale and fails the run.

Exit codes: 0 clean, 1 unsuppressed findings, unused markers (or self-test
mismatch), 2 usage/manifest error.

Analysis is intra-procedural and token-based by design: taint propagates
through declarations, assignments and member chains, and an element or
member store (`keys[r] = ...`, `items[r].major = ...`) taints the whole
container in the scope that declares it; it does not propagate through
calls that mutate a container or across call boundaries (the manifest's
sources/tainted_params entries are the cross-procedure escape hatches).
Ideal-functionality scan kernels whose aggregate circuit cost is charged up
front are annotated with oblivious-ok regions rather than modeled.
"""

import argparse
import json
import os
import re
import sys
import tomllib

# ----------------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------------

# Longest-match-first C++ punctuation. '==' must precede '=' etc.
_PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "->", "==", "!=", "<=", ">=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "++",
    "--", ".*", "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":", "=",
    "<", ">", "!", "&", "|", "^", "+", "-", "*", "/", "%", "~",
]

_ID_START = re.compile(r"[A-Za-z_]")
_ID_CONT = re.compile(r"[A-Za-z0-9_]")


class Tok:
    __slots__ = ("kind", "val", "line", "col")

    def __init__(self, kind, val, line, col):
        self.kind = kind  # 'id' | 'num' | 'str' | 'chr' | 'punct'
        self.val = val
        self.line = line
        self.col = col

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{self.kind}:{self.val}@{self.line}:{self.col}"


def tokenize(text):
    """Deterministic C++ tokenizer: skips whitespace, comments, preprocessor
    lines; understands string/char literals (incl. raw strings)."""
    toks = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    at_line_start = True
    while i < n:
        c = text[i]
        if c in " \t\r":
            advance(1)
            continue
        if c == "\n":
            advance(1)
            at_line_start = True
            continue
        if at_line_start and c == "#":
            # Preprocessor line (with continuations).
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    advance(2)
                    continue
                if text[i] == "\n":
                    break
                advance(1)
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            advance(2)
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                advance(1)
            advance(2 if i + 1 < n else n - i)
            continue
        if c == "R" and text[i : i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim".
            j = text.find("(", i + 2)
            if j != -1:
                delim = text[i + 2 : j]
                close = ")" + delim + '"'
                k = text.find(close, j + 1)
                end = (k + len(close)) if k != -1 else n
                toks.append(Tok("str", "<rawstr>", line, col))
                advance(end - i)
                continue
        if c == '"':
            start_line, start_col = line, col
            advance(1)
            while i < n and text[i] != '"':
                advance(2 if text[i] == "\\" else 1)
            advance(1)
            toks.append(Tok("str", "<str>", start_line, start_col))
            continue
        if c == "'":
            start_line, start_col = line, col
            advance(1)
            while i < n and text[i] != "'":
                advance(2 if text[i] == "\\" else 1)
            advance(1)
            toks.append(Tok("chr", "<chr>", start_line, start_col))
            continue
        if _ID_START.match(c):
            j = i + 1
            while j < n and _ID_CONT.match(text[j]):
                j += 1
            toks.append(Tok("id", text[i:j], line, col))
            advance(j - i)
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (
                text[j].isalnum()
                or text[j] in "._'"
                or (text[j] in "+-" and text[j - 1] in "eEpP")
            ):
                j += 1
            toks.append(Tok("num", text[i:j], line, col))
            advance(j - i)
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                advance(len(p))
                break
        else:
            advance(1)  # unknown byte: skip
    return toks


def tokens_via_libclang(path, index):
    """Tokenize `path` with clang.cindex, mapped onto the Tok stream the
    analysis consumes. Raises on any failure; callers fall back."""
    from clang import cindex  # noqa: F401 (import checked by caller)

    tu = index.parse(path, args=["-std=c++20", "-fsyntax-only"])
    toks = []
    kind_map = {"IDENTIFIER": "id", "KEYWORD": "id", "PUNCTUATION": "punct"}
    for t in tu.get_tokens(extent=tu.cursor.extent):
        k = t.kind.name
        if k == "COMMENT":
            continue
        if k == "LITERAL":
            s = t.spelling
            kind = "str" if s[:1] in "\"'RLuU8" and '"' in s else (
                "chr" if "'" in s else "num")
            toks.append(Tok(kind, s, t.location.line, t.location.column))
        else:
            toks.append(
                Tok(kind_map.get(k, "punct"), t.spelling, t.location.line,
                    t.location.column))
    return toks


# ----------------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------------

class Manifest:
    def __init__(self, d):
        try:
            self.secret_types = set(d["types"]["secret"])
            self.sources = set(d["sources"]["functions"])
            self.half0_fns = set(d["halves"]["share0_functions"])
            self.half1_fns = set(d["halves"]["share1_functions"])
            self.half0_fields = set(d["halves"]["share0_fields"])
            self.half1_fields = set(d["halves"]["share1_fields"])
            self.declassifiers = set(d["declassifiers"]["functions"])
            self.public_methods = set(d["declassifiers"]["public_methods"])
            self.tainted_params = {}
            for entry in d["tainted_params"]["entries"]:
                fn, _, param = entry.partition(".")
                self.tainted_params.setdefault(fn, set()).add(param)
            self.alloc_methods = set(d["sinks"]["alloc_methods"])
            self.marker = d["suppression"]["marker"]
        except KeyError as e:
            raise SystemExit(f"oblivious-lint: manifest missing section/key {e}")


# Taint lattice elements.
SECRET = "S"
HALF0 = "0"
HALF1 = "1"


def is_secret(flags):
    return SECRET in flags or (HALF0 in flags and HALF1 in flags)


def merge_taint(old, new):
    """Taint of a value that mixes `old` and `new` (either may be None)."""
    if SECRET in (old, new) or {old, new} == {HALF0, HALF1}:
        return SECRET
    return new or old


# ----------------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------------

class Suppressions:
    """Line- and region-level `oblivious-ok` markers of one file."""

    def __init__(self, path, lines, marker):
        self.line_markers = {}  # effective code line -> (marker line, reason)
        self.regions = []  # (begin line, end line, reason)
        self.errors = []
        self.used_lines = set()
        self.used_regions = set()
        begin_re = re.compile(r"//\s*" + marker + r"-begin:\s*(.+)")
        end_re = re.compile(r"//\s*" + marker + r"-end\b")
        line_re = re.compile(r"//\s*" + marker + r":\s*(.+)")
        open_region = None
        pending = None  # standalone marker awaiting its code line
        for ln, raw in enumerate(lines, start=1):
            m = begin_re.search(raw)
            if m:
                if open_region is not None:
                    self.errors.append(
                        f"{path}:{ln}: nested {marker}-begin (previous at "
                        f"line {open_region[0]})")
                open_region = (ln, m.group(1).strip())
                continue
            if end_re.search(raw):
                if open_region is None:
                    self.errors.append(f"{path}:{ln}: {marker}-end without begin")
                else:
                    self.regions.append((open_region[0], ln, open_region[1]))
                    open_region = None
                continue
            m = line_re.search(raw)
            code = raw.split("//", 1)[0]
            if m:
                reason = m.group(1).strip()
                if code.strip():
                    self.line_markers[ln] = (ln, reason)
                else:
                    pending = (ln, reason)
                continue
            if pending is not None and code.strip():
                self.line_markers[ln] = pending
                pending = None
        if open_region is not None:
            self.errors.append(
                f"{path}:{open_region[0]}: unclosed {marker}-begin")

    def covers(self, line):
        if line in self.line_markers:
            self.used_lines.add(self.line_markers[line][0])
            return True
        for idx, (b, e, _r) in enumerate(self.regions):
            if b <= line <= e:
                self.used_regions.add(idx)
                return True
        return False

    @property
    def marker_count(self):
        return len(set(m for m, _ in self.line_markers.values())) + len(self.regions)

    def unused(self):
        out = [m for m, _ in set(self.line_markers.values())
               if m not in self.used_lines]
        out += [self.regions[i][0] for i in range(len(self.regions))
                if i not in self.used_regions]
        return sorted(set(out))


# ----------------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------------

_CONTROL_KEYWORDS = {"if", "while", "switch", "for"}
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_DECL_QUALS = {"const", "constexpr", "static", "inline", "mutable", "volatile"}
# Identifiers that can precede a name without declaring it.
_NOT_A_TYPE = {"return", "case", "else", "do", "throw", "new", "delete",
               "sizeof", "goto", "co_return", "co_yield", "co_await",
               "operator", "using", "namespace"}
# Tokens that can follow the name in a declaration.
_DECL_FOLLOW = {";", "=", "(", "{", "[", ",", ")", ":"}
# Boundary tokens that terminate the backward scan for a ternary condition.
_TERNARY_STOPS = {";", ",", "{", "}", "(", "[", "?", ":", "return", "case"} | _ASSIGN_OPS


class Finding:
    __slots__ = ("path", "line", "col", "rule", "expr", "why", "suppressed")

    def __init__(self, path, line, col, rule, expr, why):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.expr = expr
        self.why = why
        self.suppressed = False


def _match_forward(toks, i, open_p, close_p):
    """Index just past the matching close for the open paren at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        v = toks[i].val
        if toks[i].kind == "punct":
            if v == open_p:
                depth += 1
            elif v == close_p:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _render(toks):
    return " ".join(t.val for t in toks[:14]) + (" ..." if len(toks) > 14 else "")


class FileAnalyzer:
    def __init__(self, path, toks, lines, manifest):
        self.path = path
        self.toks = toks
        self.manifest = manifest
        self.supp = Suppressions(path, lines, manifest.marker)
        self.findings = []
        # Scope stack of {ident: taint flag}. Scope 0 is file scope.
        self.scopes = [{}]
        self.pending_params = {}
        # Names declared in each scope (parallel to `scopes`), and names
        # declared inside parentheses, which belong to the next block
        # (function parameters, for-init and lambda parameters).
        self.declared = [set()]
        self.pending_decls = set()

    # -- taint helpers ------------------------------------------------------

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def declaring_scope(self, name):
        """Innermost scope that declares or already tracks `name`."""
        for scope, names in zip(reversed(self.scopes), reversed(self.declared)):
            if name in scope or name in names:
                return scope
        return None

    def taint_container(self, name, flag, paren_depth):
        """An element/member store of `flag` into `name` taints the whole
        container where it is declared; a store never clears it."""
        if paren_depth > 0 and name in self.pending_decls:
            self.pending_params[name] = merge_taint(
                self.pending_params.get(name), flag)
            return
        scope = self.declaring_scope(name)
        if scope is None:
            scope = self.scopes[-1]
        scope[name] = merge_taint(scope.get(name), flag)

    def note_declaration(self, i, paren_depth):
        """Records toks[i] as declared when it follows a type-ish token and
        precedes a declarator terminator (`T x;`, `T* x = ...`, `T x(...)`)."""
        toks = self.toks
        if i == 0 or i + 1 >= len(toks):
            return
        prev, nxt = toks[i - 1], toks[i + 1]
        if nxt.val not in _DECL_FOLLOW:
            return
        if not ((prev.kind == "id" and prev.val not in _NOT_A_TYPE) or
                prev.val in (">", "*", "&", "&&")):
            return
        if paren_depth > 0:
            self.pending_decls.add(toks[i].val)
        else:
            self.declared[-1].add(toks[i].val)

    def bind(self, name, flag, paren_depth):
        if flag is None:
            # Explicitly clearing (re-assignment from a public expr).
            target = self.pending_params if paren_depth > 0 else self.scopes[-1]
            target.pop(name, None)
            for scope in reversed(self.scopes):
                if name in scope:
                    scope[name] = None
                    return
            return
        if paren_depth > 0:
            self.pending_params[name] = flag
            return
        # An assignment updates the variable where it is declared, so taint
        # picked up inside a nested block outlives the block.
        scope = self.declaring_scope(name)
        (scope if scope is not None else self.scopes[-1])[name] = flag

    # -- expression evaluation ---------------------------------------------

    def eval_expr(self, toks):
        """Returns (flags, evidence list) for a token slice."""
        m = self.manifest
        flags = set()
        why = []
        i, n = 0, len(toks)
        while i < n:
            t = toks[i]
            if t.kind != "id":
                i += 1
                continue
            # Collapse qualified names a::b::c to their last component.
            name = t.val
            j = i + 1
            while j + 1 < n and toks[j].val == "::" and toks[j + 1].kind == "id":
                name = toks[j + 1].val
                j += 2
            nxt = toks[j].val if j < n else None
            if nxt == "(":
                if name in m.declassifiers:
                    i = _match_forward(toks, j, "(", ")")
                    continue  # declassified: argument taint is laundered
                if name in m.sources:
                    flags.add(SECRET)
                    why.append(name + "()")
                    i = j
                    continue
                if name in m.half0_fns:
                    flags.add(HALF0)
                    why.append(name + "()")
                    i = j
                    continue
                if name in m.half1_fns:
                    flags.add(HALF1)
                    why.append(name + "()")
                    i = j
                    continue
                i = j  # unknown call: args evaluated as the scan continues
                continue
            # Variable use, possibly a postfix member/index chain.
            cur = self.lookup(name)
            cur_why = name if cur is not None else None
            k = j
            while k < n and toks[k].val in (".", "->"):
                if k + 1 >= n or toks[k + 1].kind != "id":
                    break
                member = toks[k + 1].val
                after = toks[k + 2].val if k + 2 < n else None
                if after == "(":
                    if member in m.public_methods or member in m.declassifiers:
                        cur, cur_why = None, None
                    elif member in m.sources:
                        cur, cur_why = SECRET, member + "()"
                    elif member in m.half0_fns:
                        cur, cur_why = HALF0, member + "()"
                    elif member in m.half1_fns:
                        cur, cur_why = HALF1, member + "()"
                    # unknown member call on a tainted object: stay tainted
                    k = _match_forward(toks, k + 2, "(", ")")
                else:
                    if member in m.half0_fields:
                        cur, cur_why = HALF0, name + "." + member
                    elif member in m.half1_fields:
                        cur, cur_why = HALF1, name + "." + member
                    k += 2
            # Postfix subscripts keep the chain's taint (index handled by the
            # global sink scan).
            while k < n and toks[k].val == "[":
                k = _match_forward(toks, k, "[", "]")
            if cur is not None:
                flags.add(cur)
                if cur_why:
                    why.append(cur_why)
            i = max(k, j)
        return flags, why

    def check_sink(self, toks, line, col, rule):
        flags, why = self.eval_expr(toks)
        if is_secret(flags):
            self.findings.append(
                Finding(self.path, line, col, rule, _render(toks),
                        ",".join(sorted(set(why)))))

    # -- declaration / assignment tracking ---------------------------------

    def try_secret_decl(self, i, paren_depth):
        """`SecretType [cv/ref/ptr]* ident` declares a tainted identifier."""
        toks = self.toks
        n = len(toks)
        j = i + 1
        while j < n and (toks[j].val in ("*", "&", "&&") or
                         (toks[j].kind == "id" and toks[j].val in _DECL_QUALS)):
            j += 1
        if j < n and toks[j].kind == "id":
            after = toks[j + 1].val if j + 1 < n else None
            if after in (";", "=", "(", "{", ",", ")", "[", ":"):
                self.bind(toks[j].val, SECRET, paren_depth)

    def handle_assignment(self, i, paren_depth):
        """`target op= expr`: recompute (or merge, for compound ops) the
        target's taint from the right-hand side."""
        toks = self.toks
        op = toks[i].val

        def skip_subscripts_back(k):
            """Index of the token before the trailing `[...]`s ending at k."""
            while k >= 0 and toks[k].val == "]":
                depth = 0
                while k >= 0:
                    if toks[k].val == "]":
                        depth += 1
                    elif toks[k].val == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                k -= 1
            return k

        # Identify the target: walk back over a postfix chain of subscripts
        # and member accesses (`items[r].major`, `p->rows[i]`) to its base
        # identifier. Any subscript or member makes it an element store.
        k = skip_subscripts_back(i - 1)
        if k < 0 or toks[k].kind != "id":
            return
        element = k != i - 1
        base = k
        while base - 1 >= 0 and toks[base - 1].val in (".", "->"):
            prev = skip_subscripts_back(base - 2)
            if prev >= 0 and toks[prev].kind == "id":
                base = prev
                element = True
            elif prev >= 0 and toks[prev].val == ")":
                return  # assignment through a call result: not tracked
            else:
                break
        target = toks[base].val
        # Extract RHS up to ';' or a top-level ','.
        j = i + 1
        depth = 0
        rhs = []
        n = len(toks)
        while j < n:
            v = toks[j].val
            if toks[j].kind == "punct":
                if v in ("(", "[", "{"):
                    depth += 1
                elif v in (")", "]", "}"):
                    if depth == 0:
                        break
                    depth -= 1
                elif v == ";" and depth == 0:
                    break
                elif v == "," and depth == 0:
                    break
            rhs.append(toks[j])
            j += 1
        flags, _why = self.eval_expr(rhs)
        new = SECRET if is_secret(flags) else (
            HALF0 if HALF0 in flags else (HALF1 if HALF1 in flags else None))
        if op != "=":  # compound: merge with existing taint
            new = merge_taint(self.lookup(target), new)
        if element:
            if new is not None:
                self.taint_container(target, new, paren_depth)
            return  # a public element store keeps the container's taint
        self.bind(target, new, paren_depth)

    # -- main walk ----------------------------------------------------------

    def run(self):
        toks = self.toks
        n = len(toks)
        m = self.manifest
        paren_depth = 0
        # Name of the function whose parameter list we're inside (for
        # tainted_params), captured at the '(' that follows an identifier.
        fn_name_stack = []
        i = 0
        while i < n:
            t = toks[i]
            v = t.val
            if t.kind == "punct":
                if v == "(":
                    fn = None
                    if i > 0 and toks[i - 1].kind == "id":
                        fn = toks[i - 1].val
                    fn_name_stack.append(fn)
                    if fn in m.tainted_params:
                        # Taint the listed parameters for the upcoming body.
                        for p in m.tainted_params[fn]:
                            self.pending_params[p] = SECRET
                    paren_depth += 1
                elif v == ")":
                    paren_depth = max(0, paren_depth - 1)
                    if fn_name_stack:
                        fn_name_stack.pop()
                elif v == "{":
                    scope = dict(self.pending_params)
                    self.pending_params = {}
                    self.scopes.append(scope)
                    self.declared.append(self.pending_decls)
                    self.pending_decls = set()
                elif v == "}":
                    if len(self.scopes) > 1:
                        self.scopes.pop()
                        self.declared.pop()
                elif v == ";" and paren_depth == 0:
                    self.pending_params = {}
                    self.pending_decls = set()
                elif v == "?":
                    self.check_ternary(i)
                elif v == "[":
                    prev = toks[i - 1] if i > 0 else None
                    nxt = toks[i + 1] if i + 1 < n else None
                    if (prev is not None and
                            (prev.kind == "id" or prev.val in (")", "]")) and
                            not (nxt is not None and nxt.val == "[")):
                        end = _match_forward(toks, i, "[", "]")
                        self.check_sink(toks[i + 1 : end - 1], t.line, t.col,
                                        "secret-index")
                elif v in _ASSIGN_OPS:
                    self.handle_assignment(i, paren_depth)
                i += 1
                continue
            if t.kind == "id":
                self.note_declaration(i, paren_depth)
                if v in _CONTROL_KEYWORDS:
                    i = self.check_control(i)
                    continue
                if v in m.secret_types:
                    self.try_secret_decl(i, paren_depth)
                    i += 1
                    continue
                if v == "new":
                    j = i + 1
                    while j < n and not (toks[j].kind == "punct" and
                                         toks[j].val in ("[", ";", "(", ")", ",")):
                        j += 1
                    if j < n and toks[j].val == "[":
                        end = _match_forward(toks, j, "[", "]")
                        self.check_sink(toks[j + 1 : end - 1], t.line, t.col,
                                        "secret-alloc-size")
                        i = end
                        continue
                if (v in m.alloc_methods and i > 0 and
                        toks[i - 1].val in (".", "->") and
                        i + 1 < n and toks[i + 1].val == "("):
                    end = _match_forward(toks, i + 1, "(", ")")
                    self.check_sink(toks[i + 2 : end - 1], t.line, t.col,
                                    "secret-alloc-size")
            i += 1
        return self.findings

    def check_control(self, i):
        """if/while/switch/for at toks[i]; returns resume index."""
        toks = self.toks
        n = len(toks)
        kw = toks[i].val
        j = i + 1
        if j < n and toks[j].kind == "id" and toks[j].val == "constexpr":
            return i + 1  # if constexpr: compile-time, cannot be secret
        if j >= n or toks[j].val != "(":
            return i + 1
        end = _match_forward(toks, j, "(", ")")
        inner = toks[j + 1 : end - 1]
        if kw == "for":
            # Split on top-level ';'. Range-for has none: skip (iterating a
            # shared table reveals only its public row count).
            depth = 0
            clauses = [[]]
            for t in inner:
                if t.kind == "punct":
                    if t.val in ("(", "[", "{"):
                        depth += 1
                    elif t.val in (")", "]", "}"):
                        depth -= 1
                    elif t.val == ";" and depth == 0:
                        clauses.append([])
                        continue
                clauses[-1].append(t)
            if len(clauses) >= 2:
                # Track taint of the init clause's declarations first.
                self.scan_clause_assignments(clauses[0])
                self.check_sink(clauses[1], toks[i].line, toks[i].col,
                                "secret-loop-bound")
            return j + 1  # continue the walk inside the parens
        self.check_sink(inner, toks[i].line, toks[i].col, "secret-branch")
        return j + 1  # walk inside (nested ternaries/subscripts/assignments)

    def scan_clause_assignments(self, clause):
        """Propagate taint through `type ident = expr` in a for-init."""
        for k, t in enumerate(clause):
            if t.kind == "punct" and t.val == "=" and k > 0 and \
                    clause[k - 1].kind == "id":
                flags, _ = self.eval_expr(clause[k + 1 :])
                new = SECRET if is_secret(flags) else (
                    HALF0 if HALF0 in flags else
                    (HALF1 if HALF1 in flags else None))
                self.scopes[-1][clause[k - 1].val] = new

    def check_ternary(self, q):
        """Backward scan for the condition of the ternary at toks[q]."""
        toks = self.toks
        start = q - 1
        depth = 0
        while start >= 0:
            t = toks[start]
            if t.kind == "punct":
                if t.val in (")", "]", "}"):
                    depth += 1
                elif t.val in ("(", "[", "{"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and t.val in _TERNARY_STOPS:
                    break
            elif t.kind == "id" and depth == 0 and t.val in ("return", "case"):
                break
            start -= 1
        cond = toks[start + 1 : q]
        if cond:
            self.check_sink(cond, toks[q].line, toks[q].col, "secret-branch")


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

def repo_root():
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def discover_files(src_root, compile_commands):
    files = set()
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, "rb") as f:
            for entry in json.load(f):
                p = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"]))
                if os.path.abspath(p).startswith(os.path.abspath(src_root) + os.sep):
                    files.add(os.path.abspath(p))
    for dirpath, _dirs, names in os.walk(src_root):
        for name in names:
            if name.endswith((".cc", ".h", ".cpp", ".hpp")):
                files.add(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(files)


def make_token_source(engine):
    """Returns (tokenizer fn path->toks, engine name actually in use)."""
    if engine in ("auto", "libclang"):
        try:
            from clang import cindex
            index = cindex.Index.create()

            def via_clang(path, text):
                del text
                return tokens_via_libclang(path, index)

            return via_clang, "libclang"
        except Exception as e:  # ImportError, LibclangError, ...
            if engine == "libclang":
                raise SystemExit(
                    f"oblivious-lint: --engine libclang requested but "
                    f"unavailable: {e}")

    def via_tokenizer(path, text):
        del path
        return tokenize(text)

    return via_tokenizer, "tokenizer"


def analyze_file(path, manifest, token_source, rel_to):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    lines = text.splitlines()
    toks = token_source(path, text)
    rel = os.path.relpath(path, rel_to)
    analyzer = FileAnalyzer(rel, toks, lines, manifest)
    findings = analyzer.run()
    for fi in findings:
        fi.suppressed = analyzer.supp.covers(fi.line)
    return findings, analyzer.supp


def run_lint(paths, manifest, token_source, rel_to, verbose_suppressed=False):
    all_findings = []
    marker_total = line_markers = region_markers = 0
    suppressed_total = 0
    unused_markers = []
    errors = []
    for path in paths:
        findings, supp = analyze_file(path, manifest, token_source, rel_to)
        errors.extend(supp.errors)
        marker_total += supp.marker_count
        line_markers += len(set(m for m, _ in supp.line_markers.values()))
        region_markers += len(supp.regions)
        for fi in findings:
            if fi.suppressed:
                suppressed_total += 1
            all_findings.append(fi)
        rel = os.path.relpath(path, rel_to)
        unused_markers.extend(f"{rel}:{ln}" for ln in supp.unused())
    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    unsuppressed = [f for f in all_findings if not f.suppressed]
    for fi in unsuppressed:
        print(f"oblivious-lint: FINDING {fi.rule} {fi.path}:{fi.line}:{fi.col} "
              f"`{fi.expr}` tainted-by[{fi.why}]")
    if verbose_suppressed:
        for fi in all_findings:
            if fi.suppressed:
                print(f"oblivious-lint: suppressed {fi.rule} "
                      f"{fi.path}:{fi.line}:{fi.col}")
    for e in errors:
        print(f"oblivious-lint: MARKER-ERROR {e}")
    print(f"oblivious-lint: suppressions: {marker_total} markers "
          f"({line_markers} line, {region_markers} region), "
          f"{suppressed_total} findings suppressed, "
          f"{len(unused_markers)} unused markers")
    # A marker that suppresses nothing is stale: the code it sanctioned has
    # moved or gone, and left standing it would silently bless whatever
    # lands on that line next.
    for u in unused_markers:
        print(f"oblivious-lint: UNUSED-MARKER {u}")
    ok = not unsuppressed and not errors and not unused_markers
    print(f"oblivious-lint: {len(unsuppressed)} unsuppressed findings, "
          f"{len(unused_markers)} unused markers -> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


_EXPECT_FINDINGS = re.compile(r"//\s*expect-findings:\s*(\d+)")
_EXPECT_SUPPRESSED = re.compile(r"//\s*expect-suppressed:\s*(\d+)")
_EXPECT_UNUSED = re.compile(r"//\s*expect-unused-markers:\s*(\d+)")


def run_selftest(fixtures_dir, manifest, token_source):
    """Runs the analysis over each fixture and checks the exact finding,
    suppression and unused-marker counts its header comments declare (the
    latter two default to 0)."""
    paths = sorted(
        os.path.join(fixtures_dir, n) for n in os.listdir(fixtures_dir)
        if n.endswith((".cc", ".h")))
    if not paths:
        print(f"oblivious-lint: selftest: no fixtures in {fixtures_dir}")
        return 2
    failures = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            head = f.read()
        m = _EXPECT_FINDINGS.search(head)
        if not m:
            print(f"oblivious-lint: selftest: {path} lacks `// expect-findings: N`")
            failures += 1
            continue
        want = int(m.group(1))
        ms = _EXPECT_SUPPRESSED.search(head)
        want_suppressed = int(ms.group(1)) if ms else 0
        mu = _EXPECT_UNUSED.search(head)
        want_unused = int(mu.group(1)) if mu else 0
        findings, supp = analyze_file(path, manifest, token_source,
                                      os.path.dirname(fixtures_dir) or ".")
        got = sum(1 for f_ in findings if not f_.suppressed)
        got_suppressed = sum(1 for f_ in findings if f_.suppressed)
        got_unused = len(supp.unused())
        status = "ok"
        if (got != want or got_suppressed != want_suppressed
                or got_unused != want_unused or supp.errors):
            status = "MISMATCH"
            failures += 1
        print(f"oblivious-lint: selftest {os.path.basename(path)}: "
              f"findings {got}/{want} suppressed {got_suppressed}/"
              f"{want_suppressed} unused markers {got_unused}/{want_unused} "
              f"markers {supp.marker_count} -> {status}")
        if status == "MISMATCH":
            for fi in findings:
                tag = "suppressed " if fi.suppressed else ""
                print(f"  {tag}{fi.rule} {fi.path}:{fi.line}:{fi.col} "
                      f"`{fi.expr}`")
            for e in supp.errors:
                print(f"  marker-error {e}")
    print(f"oblivious-lint: selftest: {len(paths) - failures}/{len(paths)} "
          f"fixtures -> {'OK' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="explicit files (default: --src tree)")
    ap.add_argument("--src", default=None, help="source root (default: <repo>/src)")
    ap.add_argument("--manifest", default=None,
                    help="secret-API manifest (default: tools/lint/secret_api.toml)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for TU discovery/libclang")
    ap.add_argument("--engine", choices=["auto", "tokenizer", "libclang"],
                    default="auto")
    ap.add_argument("--selftest", metavar="DIR",
                    help="run fixture self-test over DIR and exit")
    ap.add_argument("--show-suppressed", action="store_true",
                    help="also list suppressed findings")
    args = ap.parse_args()

    root = repo_root()
    manifest_path = args.manifest or os.path.join(root, "tools/lint/secret_api.toml")
    try:
        with open(manifest_path, "rb") as f:
            manifest = Manifest(tomllib.load(f))
    except FileNotFoundError:
        raise SystemExit(f"oblivious-lint: manifest not found: {manifest_path}")
    except tomllib.TOMLDecodeError as e:
        raise SystemExit(f"oblivious-lint: bad manifest {manifest_path}: {e}")

    token_source, engine = make_token_source(args.engine)

    if args.selftest:
        sys.exit(run_selftest(args.selftest, manifest, token_source))

    if args.files:
        paths = [os.path.abspath(p) for p in args.files]
    else:
        src_root = args.src or os.path.join(root, "src")
        cc = args.compile_commands
        if cc is None:
            default_cc = os.path.join(root, "build", "compile_commands.json")
            cc = default_cc if os.path.isfile(default_cc) else None
        paths = discover_files(src_root, cc)
    if not paths:
        raise SystemExit("oblivious-lint: no input files")
    print(f"oblivious-lint: scanning {len(paths)} files "
          f"(engine={engine}, manifest={os.path.relpath(manifest_path, root)})")
    sys.exit(run_lint(paths, manifest, token_source, root,
                      verbose_suppressed=args.show_suppressed))


if __name__ == "__main__":
    main()
