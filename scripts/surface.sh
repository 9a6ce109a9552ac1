#!/usr/bin/env bash
# Public-surface guard: every `pub` item of a library crate must have a
# caller. check.sh runs it so a deleted surface cannot grow back.
#
# An item is a `pub` fn / struct / enum / trait / const / type / static /
# mod in the non-test part of a file under `crates/*/src` or `src` (the
# lines before its `#[cfg(test)] mod`). It counts as called when its name
# appears as a whole word in non-test code (doc examples included, since
# rustdoc compiles them), outside other comments and `pub use` re-exports:
#   - in another file under crates/*/src, src, examples, benchmark/src or
#     crates/bench/benches (the criterion suites build under
#     `clippy --all-targets`), or
#   - in another `pub` signature of its own file (a public fn, type or
#     field that exposes it), or
#   - in an integration test (crates/*/tests, tests), provided its own
#     file's non-test code uses it too: the crate needs the item, and a
#     test outside the crate can reach it only if it is public.
# Test code alone is no caller: an item that only tests use belongs in
# the test code.
# Any other item must be listed in scripts/surface_allow.txt, one
# `item  reason` line each: `crate::name` (or `crate::Type::name` for a
# method) for one item, or a bare crate name for a whole crate. A line
# that names neither an existing crate nor a caller-less item is stale
# (its item is gone or has gained a caller) and fails the guard too.
#
#   scripts/surface.sh              # list caller-less items and stale lines; exit 1 on either
#   scripts/surface.sh --self-test  # a planted caller-less pub fn, and a planted stale line, must fail the guard
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

ALLOW="scripts/surface_allow.txt"

run_guard() {
    # $1 = tree root, $2 = allowlist
    python3 - "$1" "$2" <<'PY'
import glob, os, re, sys

root, allow_path = sys.argv[1], sys.argv[2]
os.chdir(root)

ITEM = re.compile(r'^\s*pub\s+(?:(?:const|unsafe|async|extern\s+"C")\s+)*'
                  r'(fn|struct|enum|trait|const|type|static|mod)\s+([A-Za-z_]\w*)')
IMPL = re.compile(r'^impl\b(?:<[^{]*?>)?\s*(?:.*?\bfor\s+)?(?:[\w:]+::)?([A-Za-z_]\w*)')
TEST_ATTR = re.compile(r'^\s*#\[cfg\(test\)\]\s*$')
TEST_MOD = re.compile(r'^\s*(pub(\([a-z]+\))? )?mod ')


def non_test(lines):
    """The lines before a file's `#[cfg(test)] mod` (loc.sh's rule)."""
    for i, line in enumerate(lines):
        if i > 0 and TEST_ATTR.match(lines[i - 1]) and TEST_MOD.match(line):
            return lines[:i - 1]
    return lines


def code_lines(lines):
    """(index, line) pairs that can hold a use: code and doc-example code,
    no other comments, no `pub use`."""
    in_reexport = in_example = False
    for i, line in enumerate(lines):
        s = line.strip()
        if in_reexport:
            in_reexport = not s.endswith(';')
            continue
        if s.startswith(('///', '//!')):
            doc = s[3:].strip()
            if doc.startswith('```'):
                in_example = not in_example
            elif in_example:
                yield i, doc
            continue
        if s.startswith('//'):
            continue
        if re.match(r'pub(\([a-z]+\))? use\b', s):
            in_reexport = not s.endswith(';')
            continue
        yield i, line


def crate_name(src):
    manifest = os.path.join(os.path.dirname(src) or '.', 'Cargo.toml')
    with open(manifest) as f:
        return re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.M).group(1)


def pub_signatures(lines):
    """(first index, text) of each `pub` signature, joined up to its `{`, `;`
    or `,` — or, for a `pub enum` / `pub trait`, its whole body (variants
    and trait methods are public)."""
    code = list(code_lines(lines))
    for k, (i, line) in enumerate(code):
        if not re.match(r'\s*pub\b', line):
            continue
        text = line
        close = None
        if re.match(r'\s*pub (enum|trait)\b', line) and line.rstrip().endswith('{'):
            close = line[:len(line) - len(line.lstrip())] + '}'
        for _, more in code[k + 1:]:
            if close is not None:
                if more.rstrip() == close:
                    break
            elif re.search(r'[{;]', text) or (text.rstrip().endswith(',')
                                               and text.count('(') == text.count(')')):
                break
            text += ' ' + more
        yield i, text


def words_of(lines):
    return set(re.findall(r'[A-Za-z_]\w*', '\n'.join(l for _, l in code_lines(lines))))


lib_srcs = sorted(glob.glob('crates/*/src')) + ['src']
corpus_dirs = lib_srcs + ['examples', 'benchmark/src', 'crates/bench/benches']
files = {}
for d in corpus_dirs:
    for path in sorted(glob.glob(os.path.join(d, '**', '*.rs'), recursive=True)):
        with open(path) as f:
            files[path] = f.read().split('\n')

integration = set()
for path in glob.glob('crates/*/tests/**/*.rs', recursive=True) + \
        glob.glob('tests/**/*.rs', recursive=True):
    with open(path) as f:
        integration |= words_of(f.read().split('\n'))

# Every whole word of every file's non-test code lines, per file.
words = {path: words_of(non_test(lines)) for path, lines in files.items()}

allowed = set()
with open(allow_path) as f:
    for line in f:
        if line.strip() and not line.lstrip().startswith('#'):
            allowed.add(line.split()[0])

unused = []
uncalled = set()
crates = set()
for src in lib_srcs:
    crate = crate_name(src)
    crates.add(crate)
    for path in sorted(p for p in files if p.startswith(src + '/')):
        lines = non_test(files[path])
        impl_of = None
        for i, line in enumerate(lines):
            if line.startswith('impl'):
                m = IMPL.match(line)
                impl_of = m.group(1) if m else None
            elif line.startswith('}'):
                impl_of = None
            m = ITEM.match(line)
            if not m:
                continue
            name = m.group(2)
            if any(name in w for p, w in words.items() if p != path):
                continue
            word = re.compile(r'\b%s\b' % re.escape(name))
            if any(j != i and word.search(text) for j, text in pub_signatures(lines)):
                continue
            if name in integration and any(
                    j != i and word.search(l) for j, l in code_lines(lines)):
                continue
            label = '%s::%s' % (crate, name)
            if impl_of and line[0].isspace():
                label = '%s::%s::%s' % (crate, impl_of, name)
            uncalled.add(label)
            if crate in allowed or label in allowed:
                continue
            unused.append('%s:%d: %s %s' % (path, i + 1, m.group(1), label))

stale = sorted(allowed - crates - uncalled)
for u in unused:
    print('  ' + u)
for s in stale:
    print('  %s: stale allowlist line %s' % (allow_path, s))
if unused:
    print('surface: %d pub item(s) with no caller and no allowlist line (%s);'
          ' delete them, make them private, or allow them with a reason'
          % (len(unused), allow_path), file=sys.stderr)
if stale:
    print('surface: %d allowlist line(s) name no crate and no caller-less item;'
          ' delete them' % len(stale), file=sys.stderr)
if unused or stale:
    sys.exit(1)
print('surface: every pub item has a caller or an allowlist line, and every line is live')
PY
}

if [[ "${1:-}" == "--self-test" ]]; then
    # A caller-less pub fn planted in a copy of the tree must fail the
    # guard, and the unplanted copy must pass.
    tmp="$(mktemp -d "${TMPDIR:-/tmp}/nonrep-surface-XXXX")"
    trap 'rm -rf "$tmp"' EXIT
    tar cf - Cargo.toml src tests examples benchmark/src crates/*/Cargo.toml crates/*/src \
        crates/*/tests crates/bench/benches "$ALLOW" | tar xf - -C "$tmp"
    echo "==> self-test: the unplanted copy must pass"
    run_guard "$tmp" "$tmp/$ALLOW"
    echo "pub fn surface_self_test_planted() {}" >"$tmp/crates/types/src/planted.rs"
    echo "==> self-test: a planted caller-less pub fn must fail"
    if out="$(run_guard "$tmp" "$tmp/$ALLOW" 2>&1)"; then
        echo "surface self-test FAILED: the planted item passed" >&2
        exit 1
    fi
    if ! grep -q ' fn nonrep_types::surface_self_test_planted$' <<<"$out"; then
        printf '%s\nsurface self-test FAILED: the planted item is not listed\n' "$out" >&2
        exit 1
    fi
    rm "$tmp/crates/types/src/planted.rs"
    echo "nonrep_types::surface_self_test_stale  planted stale line" >>"$tmp/$ALLOW"
    echo "==> self-test: a planted stale allowlist line must fail"
    if out="$(run_guard "$tmp" "$tmp/$ALLOW" 2>&1)"; then
        echo "surface self-test FAILED: the stale line passed" >&2
        exit 1
    fi
    if ! grep -q 'stale allowlist line nonrep_types::surface_self_test_stale$' <<<"$out"; then
        printf '%s\nsurface self-test FAILED: the stale line is not listed\n' "$out" >&2
        exit 1
    fi
    echo "surface: self-test passed"
    exit 0
fi

run_guard . "$ALLOW"
