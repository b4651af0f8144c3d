#!/usr/bin/env python3
"""Generate tests/generated_kat.inc — differential known-answer vectors.

The reference implementations are CPython's hashlib/hmac (OpenSSL-backed)
and its built-in pow(), independent of every SHA-256, HMAC and bignum
implementation in this repository. Deterministic: message bytes and
bignum operands come from a fixed LCG, not os.urandom.
"""
import hashlib
import hmac
import os

OUT = os.path.join(os.path.dirname(__file__), "..", "tests",
                   "generated_kat.inc")

# Message lengths chosen to cover block boundaries, padding edge cases
# (55/56/63/64), multi-block messages, and sizes large enough to exercise
# vectorized paths.
SHA_LENGTHS = [0, 1, 3, 31, 32, 55, 56, 57, 63, 64, 65, 100, 127, 128, 129,
               255, 256, 1000, 4096, 8191]
HMAC_CASES = [(0, 0), (16, 1), (32, 64), (63, 100), (64, 128), (65, 1000),
              (100, 4096)]

# Modular exponentiation. One random full-width modulus per limb count
# 1..49 (every length % 8 tail of the multiply-accumulate row; 16, 32 and
# 48 limbs are the RSA-3072 CRT legs, MODP-2048 and RSA-3072 verify), plus
# moduli whose top limb is all ones or only its top bit. Bases: 0, 1, n-1,
# one in [n, R) and one 2k limbs wide (the wide-input fold); exponents 0,
# 1, 2, 65537 and one as wide as the modulus. e = 1 vectors double as
# reduce() references and e = 2 vectors as mul_mod(base, base) ones. Every
# modulus gets the sweep pairs; the key sizes and the shaped moduli get
# the edge pairs as well.
MODEXP_LIMBS = range(1, 50)
MODEXP_SHAPE_LIMBS = (1, 16, 48)
MODEXP_EDGE_LIMBS = (16, 32, 48)
MODEXP_SWEEP_PAIRS = [("wide", "full"), ("wide", "1"), ("wide", "2")]
MODEXP_EDGE_PAIRS = MODEXP_SWEEP_PAIRS + [
    ("wide", "65537"), ("hi", "1"), ("hi", "65537"), ("hi", "0"),
    ("n-1", "2"), ("0", "65537"), ("0", "0"), ("1", "full")]


def lcg_bytes(seed: int, n: int) -> bytes:
    state = seed & 0xFFFFFFFF
    out = bytearray()
    for _ in range(n):
        state = (1103515245 * state + 12345) & 0xFFFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out)


def lcg_int(seed: int, bits: int) -> int:
    """Random integer of exactly `bits` bits (top bit set)."""
    v = int.from_bytes(lcg_bytes(seed, (bits + 7) // 8), "big")
    return (v >> (-bits % 8)) | (1 << (bits - 1))


def modexp_moduli():
    """(name, limbs, modulus) for every modulus the vectors use."""
    out = []
    for k in MODEXP_LIMBS:
        out.append(("random%d" % k, k, lcg_int(0x5EED0000 + k, 64 * k) | 1))
    for k in MODEXP_SHAPE_LIMBS:
        low = lcg_int(0x5EED1000 + k, 64 * k) % (1 << (64 * (k - 1)))
        ones = ((1 << 64) - 1) << (64 * (k - 1))
        top_bit = 1 << (64 * k - 1)
        out.append(("ones_top%d" % k, k, ones | low | 1))
        out.append(("top_bit%d" % k, k, top_bit | low | 1))
    return out


def modexp_lines():
    lines = []
    vectors = []
    for seed, (name, k, n) in enumerate(modexp_moduli()):
        edge = k in MODEXP_EDGE_LIMBS or not name.startswith("random")
        pairs = MODEXP_EDGE_PAIRS if edge else MODEXP_SWEEP_PAIRS
        r = 1 << (64 * k)
        bases = {
            "0": 0,
            "1": 1,
            "n-1": n - 1,
            "hi": n + lcg_int(0x5EED2000 + seed, 64 * k) % (r - n),
            "wide": lcg_int(0x5EED3000 + seed, 128 * k),
        }
        exponents = {"0": 0, "1": 1, "2": 2, "65537": 65537,
                     "full": lcg_int(0x5EED4000 + seed, 64 * k)}
        ident = "kModExp_" + name
        lines.append('static const char %s_n[] = "%x";' % (ident, n))
        named = {}  # operands long enough to share by name
        for base, exp in pairs:
            for kind, value in ((base, bases[base]), (exp, exponents[exp])):
                if value > 65537 and kind not in named:
                    named[kind] = "%s_%s" % (ident,
                                             kind.replace("-", "_minus_"))
                    lines.append('static const char %s[] = "%x";' %
                                 (named[kind], value))
        def ref(kind, value):
            return named.get(kind, '"%x"' % value)

        for base, exp in pairs:
            result = pow(bases[base], exponents[exp], n)
            vectors.append('    {%s_n, %s, %s,\n     "%x"},' % (
                ident, ref(base, bases[base]), ref(exp, exponents[exp]),
                result))
    lines.append("")
    lines.append("static const GeneratedModExpVector kGeneratedModExpVectors[] = {")
    lines.extend(vectors)
    lines.append("};")
    lines.append("")
    return lines


def main() -> None:
    lines = []
    lines.append("// Generated by tools/gen_kat.py — do not edit by hand.")
    lines.append("// Reference: CPython hashlib/hmac and pow() (independent of")
    lines.append("// this repository's SHA-256 / HMAC / bignum implementations).")
    lines.append("")
    lines.append("struct GeneratedShaVector {")
    lines.append("  const char* msg_hex;")
    lines.append("  const char* digest_hex;")
    lines.append("};")
    lines.append("")
    lines.append("struct GeneratedHmacVector {")
    lines.append("  const char* key_hex;")
    lines.append("  const char* msg_hex;")
    lines.append("  const char* mac_hex;")
    lines.append("};")
    lines.append("")
    lines.append("// Hex, most significant digit first: result = base^exponent mod")
    lines.append("// modulus.")
    lines.append("struct GeneratedModExpVector {")
    lines.append("  const char* modulus;")
    lines.append("  const char* base;")
    lines.append("  const char* exponent;")
    lines.append("  const char* result;")
    lines.append("};")
    lines.append("")

    lines.append("static const GeneratedShaVector kGeneratedShaVectors[] = {")
    for i, n in enumerate(SHA_LENGTHS):
        msg = lcg_bytes(0xC0FFEE00 + i, n)
        digest = hashlib.sha256(msg).hexdigest()
        lines.append('    {"%s",' % msg.hex())
        lines.append('     "%s"},' % digest)
    lines.append("};")
    lines.append("")

    lines.append("static const GeneratedHmacVector kGeneratedHmacVectors[] = {")
    for i, (klen, mlen) in enumerate(HMAC_CASES):
        key = lcg_bytes(0xBEEF0000 + i, klen)
        msg = lcg_bytes(0xF00D0000 + i, mlen)
        mac = hmac.new(key, msg, hashlib.sha256).hexdigest()
        lines.append('    {"%s",' % key.hex())
        lines.append('     "%s",' % msg.hex())
        lines.append('     "%s"},' % mac)
    lines.append("};")
    lines.append("")

    lines.extend(modexp_lines())

    with open(OUT, "w") as f:
        f.write("\n".join(lines))
    print("wrote", os.path.normpath(OUT))


if __name__ == "__main__":
    main()
