#!/usr/bin/env python3
"""Repo invariant linter: fast, AST-free checks of documented invariants.

The repository's layering and concurrency rules are enforceable without a
compiler — they are confinement rules about which tokens may appear in
which files. This linter codifies ten documented ones:

  wire-confinement    Wire-protocol serialization (InstanceRequest &
                      friends ::serialize/::deserialize) stays inside
                      src/cas/protocol.* and src/cas/client.*. Everything
                      else goes through the shared frontend glue
                      (serve_client_frame & friends).
  raw-mutex           No std::mutex / std::shared_mutex / std::lock_guard
                      / std::condition_variable (etc.) outside
                      src/common/mutex.h. All locking goes through
                      sinclave::Mutex so Clang thread-safety analysis and
                      the debug lock-rank detector see every acquisition.
                      (std::once_flag / std::call_once stay allowed: they
                      are not lock-order-relevant.)
  status-strings      The canonical error texts live in ONE table —
                      status_message() in src/common/status.cpp. No other
                      src/ file may repeat one as a string literal; compose
                      with status_message(StatusCode::...) instead, so the
                      texts can never drift.
  status-details      Structured status-detail fragments that clients parse
                      back out ("retry-after-ms=", "circuit breaker open",
                      "leader=") are a wire contract: composed and parsed
                      ONLY by the helpers in src/common/status.cpp
                      (retry_after_detail, parse_retry_after,
                      breaker_open_detail, not_leader_detail,
                      parse_leader_hint). No other src/ file may embed the
                      format as a literal.
  retry-confinement   The client's one retry rule (CasClient::Core::retry)
                      is the only caller of its inputs: in src/, calls to
                      parse_leader_hint(, parse_retry_after( and
                      backoff_before( appear only in src/cas/client.cpp
                      (status.h/.cpp declare and define the parsers,
                      cas/client.h declares backoff_before). A second retry
                      loop anywhere else fails the lint.
  handshake-confinement
                      The attested handshake has one path in: in src/,
                      SecureClient is named only by the channel itself
                      (src/net/secure_channel.*) and the client SDK
                      (src/cas/client.*, whose AttestedChannel routes it by
                      the retry rule).
  prediction-confinement
                      A singleton's MRENCLAVE is predicted once, when its
                      credential is minted: in src/, outside
                      src/core/predictor.*, MeasurementPredictor::predict(
                      appears only in src/cas/service.cpp (the mint), and
                      predict_common( only in src/server/cas_server.cpp
                      (the verify-once memo). A pooled retrieval is served
                      by its pool's stamp, not by predicting again.
  memo-confinement    A stamp the session table remembers lets later
                      retrievals skip the RSA verification, so in src/ the
                      stamp-installing call (SigStructCache's .remember()
                      or ->remember()) appears only in
                      src/server/cas_server.cpp, and there only in a
                      function that has already called signature_valid(,
                      mr_signer( (the signer check) and predict_common(.
  alloc-free          Files on the allocation-free signing, key-agreement
                      and volume hot paths (asserted by tests/test_alloc.cpp's
                      counting operator new) must not contain allocation
                      tokens (new / malloc / make_unique / ...) at all.
  fuzz-coverage       Every attacker-facing decoder — wire types with a
                      static deserialize in src/cas/protocol.h, the
                      decode/parse/serve free functions there, unseal_state
                      in src/cas/persistence.h, and the status parsers in
                      src/common/status.h — must be exercised by name in
                      at least one fuzz harness body (fuzz/fuzz_*.cpp). A
                      new decoder cannot land unfuzzed.

Diagnostics are file:line, exit status is nonzero when anything fired.
--self-test seeds one violation of each class in a temp tree and checks
every rule both fires on it and stays quiet on a clean tree.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

SOURCE_GLOBS = ("*.h", "*.cpp")

# --- rule scopes -----------------------------------------------------------

WIRE_ALLOWED = {
    "src/cas/protocol.h",
    "src/cas/protocol.cpp",
    "src/cas/client.h",
    "src/cas/client.cpp",
}

MUTEX_ALLOWED = {
    "src/common/mutex.h",
    "src/common/mutex.cpp",
    "src/common/thread_annotations.h",
}

STATUS_TABLE = "src/common/status.cpp"

# The signing, key-agreement and volume-mount hot paths: tests/test_alloc.cpp
# proves these allocation-free at runtime; the lint proves nobody
# reintroduces an allocation token.
ALLOC_FREE_FILES = (
    "src/crypto/aes.cpp",
    "src/crypto/bignum.h",
    "src/crypto/bignum.cpp",
    "src/crypto/sha256.cpp",
    "src/crypto/sha256_fast.cpp",
    "src/crypto/hmac.cpp",
    "src/crypto/x25519.cpp",
    "src/crypto/fe25519.h",
    "src/crypto/sha512.cpp",
    "src/crypto/ed25519.cpp",
)

WIRE_TYPES = (
    "InstanceRequest|InstanceResponse|AttestResponse|AttestPayload|"
    "IntrospectRequest|IntrospectResponse"
)
RE_WIRE = re.compile(
    r"\b(?:%s)\s*::\s*(?:serialize|deserialize)\b" % WIRE_TYPES
)

RE_RAW_MUTEX = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|try_to_lock|defer_lock|adopt_lock)\b"
)

RE_ALLOC = re.compile(
    r"\bnew\b|\bmalloc\b|\bcalloc\b|\brealloc\b|\bstrdup\b|"
    r"\bmake_unique\b|\bmake_shared\b"
)

# Only table entries this long are distinctive enough to lint on ("ok"
# and other short strings would false-positive everywhere).
STATUS_MIN_LEN = 10

# Structured detail fragments clients parse back out of a Status — wire
# contract, composed/parsed only by the src/common/status.cpp helpers.
DETAIL_FRAGMENTS = ("retry-after-ms=", "circuit breaker open",
                    "leader=")

# The retry rule's inputs: called only from the rule in RETRY_RULE_FILE;
# each symbol's declaring/defining files are exempt.
RETRY_RULE_FILE = "src/cas/client.cpp"
RETRY_SYMBOL_HOMES = {
    "parse_leader_hint": {"src/common/status.h", "src/common/status.cpp"},
    "parse_retry_after": {"src/common/status.h", "src/common/status.cpp"},
    "backoff_before": {"src/cas/client.h"},
}
RE_RETRY_CALL = re.compile(
    r"\b(%s)\s*\(" % "|".join(RETRY_SYMBOL_HOMES))

# The one path to the attested handshake.
HANDSHAKE_ALLOWED = {
    "src/net/secure_channel.h",
    "src/net/secure_channel.cpp",
    "src/cas/client.h",
    "src/cas/client.cpp",
}
RE_SECURE_CLIENT = re.compile(r"\bSecureClient\b")

# Where each prediction may be called from (its one home outside the
# predictor itself).
PREDICTOR_FILES = {"src/core/predictor.h", "src/core/predictor.cpp"}
PREDICTION_HOMES = {
    "predict": "src/cas/service.cpp",
    "predict_common": "src/server/cas_server.cpp",
}
RE_PREDICTION = re.compile(
    r"\bMeasurementPredictor\s*::\s*(predict)\s*\(|\b(predict_common)\s*\(")

# The session table's stamp-installing call, its one caller, and what
# that caller must have checked (in the same function) before it.
MEMO_FILE = "src/server/cas_server.cpp"
RE_REMEMBER = re.compile(r"(?:\.|->)\s*remember\s*\(")
MEMO_CHECKS = ("signature_valid", "mr_signer", "predict_common")
# A function definition ends with a closing brace in column 0.
RE_FUNCTION_END = re.compile(r"^}", re.MULTILINE)

# Headers whose byte-facing decoders the fuzz layer must cover. A header
# that does not exist is skipped (the rule is about decoders that DO
# exist going unfuzzed, not about repo layout).
FUZZ_DECODER_HEADERS = (
    "src/cas/protocol.h",
    "src/cas/persistence.h",
    "src/cas/replication.h",
    "src/common/status.h",
)

# `static T deserialize(...)` declarations: the return type names the wire
# type, which is exactly the token a harness uses (stable<cas::T>, ...).
RE_FUZZ_STRUCT_DECODER = re.compile(
    r"static\s+(\w+)\s+deserialize\s*\(")

# Free-function decoders/parsers of attacker-controlled bytes.
RE_FUZZ_FREE_DECODER = re.compile(
    r"\b((?:decode|parse|unseal)_\w+|serve_\w+_frame|"
    r"status_code_from_\w+)\s*\(")


def strip_code(text, blank_strings):
    """Replace comments (and optionally string/char literals) with spaces.

    Line structure is preserved so match offsets map back to line numbers.
    Handles // and /* */ comments, escape sequences, and the simple raw
    string form R"(...)" used in this codebase.
    """
    out = []
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "R" and text[i : i + 3] == 'R"(':
            j = text.find(')"', i + 3)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            if blank_strings:
                seg = "".join(ch if ch == "\n" else " " for ch in seg)
            out.append(seg)
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            seg = text[i:j]
            if blank_strings:
                seg = quote + " " * max(0, len(seg) - 2) + (
                    quote if seg.endswith(quote) and len(seg) > 1 else ""
                )
            out.append(seg)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def iter_sources(root):
    src = root / "src"
    if not src.is_dir():
        return
    for pattern in SOURCE_GLOBS:
        yield from sorted(src.rglob(pattern))


def rel(root, path):
    return path.relative_to(root).as_posix()


def status_literals(root):
    """String literals of the status_message() table (the canonical texts)."""
    table = root / STATUS_TABLE
    if not table.is_file():
        return []
    text = table.read_text(encoding="utf-8")
    match = re.search(r"const\s+char\s*\*\s*status_message\b", text)
    if match is None:
        return []
    # The function body ends at the first close brace in column zero.
    end = text.find("\n}", match.start())
    body = text[match.start() : end if end != -1 else len(text)]
    literals = re.findall(r'return\s+"((?:[^"\\]|\\.)*)"', body)
    return [lit for lit in literals if len(lit) >= STATUS_MIN_LEN]


def check_wire(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath in WIRE_ALLOWED:
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_WIRE.finditer(text):
            findings.append(
                (relpath, line_of(text, m.start()), "wire-confinement",
                 "wire-protocol serialization '%s' outside "
                 "src/cas/protocol.*|client.* — route through the shared "
                 "frontend glue (serve_client_frame & friends)"
                 % " ".join(m.group(0).split())))


def check_raw_mutex(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath in MUTEX_ALLOWED:
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_RAW_MUTEX.finditer(text):
            findings.append(
                (relpath, line_of(text, m.start()), "raw-mutex",
                 "raw '%s' outside common/mutex.h — use sinclave::Mutex/"
                 "SharedMutex/CondVar so thread-safety analysis and the "
                 "lock-rank detector see it" % m.group(0)))


def check_status_strings(root, findings):
    literals = status_literals(root)
    if not literals:
        findings.append(
            (STATUS_TABLE, 1, "status-strings",
             "could not extract the status_message() table "
             "(moved or renamed? update tools/lint_invariants.py)"))
        return
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath == STATUS_TABLE:
            continue
        # Comments stripped, string literals kept: the rule is about
        # duplicated message *strings*, not prose mentioning a message.
        text = strip_code(path.read_text(encoding="utf-8"),
                          blank_strings=False)
        for lit in literals:
            for m in re.finditer(re.escape('"' + lit + '"'), text):
                findings.append(
                    (relpath, line_of(text, m.start()), "status-strings",
                     'canonical error text "%s" duplicated outside the '
                     "status_message table — compose with "
                     "status_message(StatusCode::...)" % lit))


def check_status_details(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath == STATUS_TABLE:
            continue
        # Comments stripped, string literals kept: prose may discuss the
        # format, code may not embed it.
        text = strip_code(path.read_text(encoding="utf-8"),
                          blank_strings=False)
        for frag in DETAIL_FRAGMENTS:
            for m in re.finditer(re.escape(frag), text):
                findings.append(
                    (relpath, line_of(text, m.start()), "status-details",
                     "status-detail format fragment '%s' outside "
                     "src/common/status.cpp — compose/parse with "
                     "retry_after_detail / parse_retry_after / "
                     "breaker_open_detail / not_leader_detail / "
                     "parse_leader_hint" % frag))


def check_retry_confinement(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath == RETRY_RULE_FILE:
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_RETRY_CALL.finditer(text):
            if relpath in RETRY_SYMBOL_HOMES[m.group(1)]:
                continue
            findings.append(
                (relpath, line_of(text, m.start()), "retry-confinement",
                 "'%s(' outside %s — retry decisions belong to the one "
                 "retry rule, CasClient::Core::retry"
                 % (m.group(1), RETRY_RULE_FILE)))


def check_handshake_confinement(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath in HANDSHAKE_ALLOWED:
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_SECURE_CLIENT.finditer(text):
            findings.append(
                (relpath, line_of(text, m.start()), "handshake-confinement",
                 "'SecureClient' outside net/secure_channel.* and "
                 "cas/client.* — attest through cas::AttestedChannel so "
                 "the handshake follows the one retry rule"))


def check_prediction_confinement(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        if relpath in PREDICTOR_FILES:
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_PREDICTION.finditer(text):
            symbol = m.group(1) or m.group(2)
            if relpath == PREDICTION_HOMES[symbol]:
                continue
            findings.append(
                (relpath, line_of(text, m.start()), "prediction-confinement",
                 "'%s(' outside %s — a singleton's MRENCLAVE is predicted "
                 "once, at the mint; serve pooled credentials by their "
                 "stamp" % (symbol, PREDICTION_HOMES[symbol])))


def check_memo_confinement(root, findings):
    for path in iter_sources(root):
        relpath = rel(root, path)
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_REMEMBER.finditer(text):
            if relpath != MEMO_FILE:
                findings.append(
                    (relpath, line_of(text, m.start()), "memo-confinement",
                     "'remember(' outside %s — only the verification in "
                     "CasServer::check_common may install a stamp that "
                     "skips it" % MEMO_FILE))
                continue
            ends = [e.end() for e in RE_FUNCTION_END.finditer(text, 0,
                                                               m.start())]
            body = text[ends[-1] if ends else 0:m.start()]
            missing = [c for c in MEMO_CHECKS
                       if not re.search(r"\b%s\s*\(" % c, body)]
            if missing:
                findings.append(
                    (relpath, line_of(text, m.start()), "memo-confinement",
                     "'remember(' before %s in its function — a stamp is "
                     "remembered only once it verified" %
                     ", ".join("'%s('" % c for c in missing)))


def check_alloc_free(root, findings):
    for relpath in ALLOC_FREE_FILES:
        path = root / relpath
        if not path.is_file():
            continue
        text = strip_code(path.read_text(encoding="utf-8"), blank_strings=True)
        for m in RE_ALLOC.finditer(text):
            findings.append(
                (relpath, line_of(text, m.start()), "alloc-free",
                 "allocation token '%s' in a file tests/test_alloc.cpp "
                 "asserts allocation-free" % m.group(0)))


def check_fuzz_coverage(root, findings):
    harness_text = ""
    fuzz_dir = root / "fuzz"
    if fuzz_dir.is_dir():
        for path in sorted(fuzz_dir.glob("fuzz_*.cpp")):
            harness_text += strip_code(
                path.read_text(encoding="utf-8"), blank_strings=True)
    for relpath in FUZZ_DECODER_HEADERS:
        path = root / relpath
        if not path.is_file():
            continue
        text = strip_code(path.read_text(encoding="utf-8"),
                          blank_strings=True)
        seen = set()
        for regex in (RE_FUZZ_STRUCT_DECODER, RE_FUZZ_FREE_DECODER):
            for m in regex.finditer(text):
                symbol = m.group(1)
                if symbol in seen:
                    continue
                seen.add(symbol)
                if re.search(r"\b%s\b" % re.escape(symbol), harness_text):
                    continue
                findings.append(
                    (relpath, line_of(text, m.start()), "fuzz-coverage",
                     "decoder '%s' is not exercised by any fuzz harness "
                     "body (fuzz/fuzz_*.cpp) — attacker-facing byte "
                     "parsers must be fuzzed" % symbol))


CHECKS = (check_wire, check_raw_mutex, check_status_strings,
          check_status_details, check_retry_confinement,
          check_handshake_confinement, check_prediction_confinement,
          check_memo_confinement, check_alloc_free, check_fuzz_coverage)


def run_all(root):
    findings = []
    for check in CHECKS:
        check(root, findings)
    return sorted(findings)


# --- self test -------------------------------------------------------------

SELFTEST_STATUS_CPP = '''
#include "common/status.h"
const char* status_message(StatusCode code) {
  switch (code) {
    case StatusCode::kTokenReused:
      return "token already spent";
  }
  return "internal error";
}
'''

# One file per violation class; each also carries a line that must NOT
# fire (comment/string forms), proving the stripper does its job.
SELFTEST_VIOLATIONS = {
    "src/server/bad_wire.cpp": (
        "// InstanceRequest::deserialize in a comment is fine\n"
        "auto r = InstanceRequest::deserialize(raw);\n",
        "wire-confinement",
    ),
    "src/server/bad_mutex.cpp": (
        "// prose about std::mutex stays legal\n"
        "static std::mutex m;\n",
        "raw-mutex",
    ),
    "src/server/bad_status.cpp": (
        'throw Error("token already spent");\n',
        "status-strings",
    ),
    "src/server/bad_detail.cpp": (
        "// prose saying retry-after-ms= in a comment stays legal\n"
        'resp.status.detail = "try later (retry-after-ms=5)";\n',
        "status-details",
    ),
    "src/workload/bad_retry.cpp": (
        "// prose about parse_leader_hint(detail) stays legal\n"
        "const auto hint = parse_leader_hint(got.status.detail);\n",
        "retry-confinement",
    ),
    "src/workload/chaos.cpp": (
        "// a comment naming net::SecureClient stays legal\n"
        "  net::SecureClient channel(crypto::Drbg::from_seed(\n",
        "handshake-confinement",
    ),
    "src/server/bad_predict.cpp": (
        "// a comment calling MeasurementPredictor::predict(base, page)\n"
        "  return core::MeasurementPredictor::predict(base, page) == mr;\n",
        "prediction-confinement",
    ),
    "src/server/bad_memo.cpp": (
        "// a comment calling sigstruct_cache_.remember(s, pin, stamp)\n"
        "  table->remember(session, pin, MintStamp{base, common});\n",
        "memo-confinement",
    ),
    "src/server/cas_server.cpp": (
        "Status CasServer::check_common() {\n"
        "  if (!common.signature_valid()) return bad;\n"
        "  if (common.mr_signer() != pin) return wrong;\n"
        "  if (common.enclave_hash != predict_common(base)) return bad;\n"
        "  sigstruct_cache_.remember(session, pin, stamp);\n"
        "}\n"
        "void CasServer::premint() {\n"
        "  // checked above: signature_valid() mr_signer() predict_common()\n"
        "  sigstruct_cache_.remember(session, pin, stamp);\n"
        "}\n",
        "memo-confinement",
    ),
    "src/crypto/bignum.cpp": (
        "// never reallocates (comment token must not fire)\n"
        "int* leak = new int;\n",
        "alloc-free",
    ),
    # A wire type with a deserialize and no fuzz/ harness mentioning it.
    # (The temp tree has no fuzz/ directory at all, which is the same
    # failure mode as an unfuzzed decoder.)
    "src/cas/protocol.h": (
        "// a comment saying static Bar deserialize( must not fire\n"
        "struct UnfuzzedThing {\n"
        "  static UnfuzzedThing deserialize(ByteView data);\n"
        "};\n",
        "fuzz-coverage",
    ),
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        (root / "src/common").mkdir(parents=True)
        (root / "src/common/status.cpp").write_text(SELFTEST_STATUS_CPP)

        # Clean tree: nothing may fire.
        clean = run_all(root)
        if clean:
            failures.append("clean tree produced findings: %r" % (clean,))

        for relpath, (content, _) in SELFTEST_VIOLATIONS.items():
            path = root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)

        findings = run_all(root)
        fired = {rule for (_, _, rule, _) in findings}
        for relpath, (_, rule) in SELFTEST_VIOLATIONS.items():
            hits = [f for f in findings if f[0] == relpath and f[2] == rule]
            if len(hits) != 1:
                failures.append(
                    "rule %s: expected exactly 1 finding in %s, got %r"
                    % (rule, relpath, hits))
        unexpected = len(findings) - len(SELFTEST_VIOLATIONS)
        if unexpected:
            failures.append("unexpected extra findings: %r" % (findings,))
        if fired != {r for (_, r) in SELFTEST_VIOLATIONS.values()}:
            failures.append("rules fired: %r" % (sorted(fired),))

    for failure in failures:
        print("self-test FAIL: %s" % failure, file=sys.stderr)
    if not failures:
        print("self-test: all %d rules detected in %d seeded files, clean "
              "tree clean" % (len({r for (_, r) in
                                   SELFTEST_VIOLATIONS.values()}),
                              len(SELFTEST_VIOLATIONS)))
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: parent of tools/)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="seed one violation per rule in a temp tree and verify each "
             "is caught (and that a clean tree passes)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    findings = run_all(args.root)
    for relpath, line, rule, message in findings:
        print("%s:%d: [%s] %s" % (relpath, line, rule, message))
    if findings:
        print("%d invariant violation(s)" % len(findings), file=sys.stderr)
        return 1
    print("lint_invariants: OK (%d rules)" % len(CHECKS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
