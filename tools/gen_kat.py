#!/usr/bin/env python3
"""Generate tests/generated_kat.inc — differential known-answer vectors.

The reference implementations are CPython's hashlib/hmac (OpenSSL-backed),
its built-in pow() and divmod(), the RFC 7748 ladder below on Python ints,
and RFC 8032 §6's Ed25519 reference code (transcribed below, over
hashlib's SHA-512), independent of every SHA-256, SHA-512, HMAC, bignum,
X25519 and Ed25519 implementation in this repository. Deterministic:
message bytes, bignum operands, scalars, seeds and u-coordinates come from
a fixed LCG, not os.urandom.
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
# 48 limbs are the RSA-3072 CRT legs, a 2048-bit modulus and RSA-3072
# verify), plus
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


# X25519: LCG-drawn scalars against LCG-drawn u (about half with bit 255
# set), u with bit 255 forced on, and non-canonical u = p + r, r < 19, bare
# and with bit 255 set. r = 0 and 1 are u = 0 and u = 1, small-order
# points with no nonzero answer, so the offsets skip them.
P25519 = 2**255 - 19
X25519_RANDOM = 12
X25519_TOP_BIT = 4
X25519_NONCANONICAL_OFFSETS = (2, 9, 18)


# Long division (BigInt::div_mod, Knuth's Algorithm D on 64-bit limbs):
# divisors of 1..8 limbs against dividends from as wide as the divisor to
# twice as wide plus one limb, random and with all-ones top limbs; a
# divisor whose top bit is set (normalization shift 0); and inputs that
# take Algorithm D's add-back step (D6), which random limbs reach with
# probability about 2^-63. DIVMOD_ADD_BACK came from a search over limb
# patterns (0, 1, 2, 2^32, 2^63 +- 1, 2^64 - 1, ...) with Algorithm D run
# on Python ints; shifting both operands left by whole limbs keeps the
# step, so each is also sent at 4..8 limbs.
DIVMOD_LIMBS = range(1, 9)
DIVMOD_ADD_BACK = [
    (0x800000000000000080000000000000017fffffffffffffff7fffffffffffffff,
     0x80000000000000010000000000000002ffffffffffffffff),
    (0xfffffffffffffffefffffffffffffffe0000000000000002ffffffffffffffff,
     0x200000000000000020000000000000001),
    (0xfffffffffffffffe000000000000000100000000000000000000000000000001,
     0xfffffffffffffffe00000000000000018000000000000000),
]

# SHA-512 and Ed25519 message lengths: 0..300 bytes, with SHA-512's
# padding edges (111/112 and 127/128 bytes leave room for the length field
# or not) and, for Ed25519, the same edges of its two hashed inputs,
# prefix || M (32 + |M|) and R || A || M (64 + |M|).
SHA512_LENGTHS = [0, 1, 3, 55, 56, 63, 64, 65, 100, 111, 112, 113, 127, 128,
                  129, 200, 239, 240, 255, 256, 257, 300]
ED25519_LENGTHS = [0, 1, 2, 31, 32, 33, 47, 48, 63, 64, 79, 80, 95, 96, 111,
                   112, 127, 128, 129, 200, 256, 300]


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


def x25519_ref(scalar: bytes, u: bytes) -> bytes:
    """RFC 7748 §5: clamp, mask bit 255 of u, reduce it, run the ladder."""
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    k = int.from_bytes(k, "little")
    x1 = (int.from_bytes(u, "little") & ((1 << 255) - 1)) % P25519
    x2, z2, x3, z3, swap = 1, 0, x1, 1, 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % P25519
        aa = a * a % P25519
        b = (x2 - z2) % P25519
        bb = b * b % P25519
        e = (aa - bb) % P25519
        c = (x3 + z3) % P25519
        d = (x3 - z3) % P25519
        da = d * a % P25519
        cb = c * b % P25519
        x3 = (da + cb) ** 2 % P25519
        z3 = x1 * (da - cb) ** 2 % P25519
        x2 = aa * bb % P25519
        z2 = e * (aa + 121665 * e) % P25519
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, P25519 - 2, P25519) % P25519).to_bytes(32, "little")


def x25519_lines():
    cases = []
    for i in range(X25519_RANDOM):
        cases.append((lcg_bytes(0x25519000 + i, 32),
                      lcg_bytes(0x25519100 + i, 32)))
    for i in range(X25519_TOP_BIT):
        u = bytearray(lcg_bytes(0x25519200 + i, 32))
        u[31] |= 0x80
        cases.append((lcg_bytes(0x25519300 + i, 32), bytes(u)))
    for i, r in enumerate(X25519_NONCANONICAL_OFFSETS):
        for top in (0, 1 << 255):
            u = (P25519 + r + top).to_bytes(32, "little")
            cases.append((lcg_bytes(0x25519400 + 2 * i + (top > 0), 32), u))
    lines = ["static const GeneratedX25519Vector kGeneratedX25519Vectors[] = {"]
    for scalar, u in cases:
        result = x25519_ref(scalar, u)
        assert any(result), "a vector's u has small order"
        lines.append('    {"%s",' % scalar.hex())
        lines.append('     "%s",' % u.hex())
        lines.append('     "%s"},' % result.hex())
    lines.append("};")
    lines.append("")
    return lines


def divmod_lines():
    cases = []
    for k in DIVMOD_LIMBS:
        # Top limb of 1..63 bits: normalization shifts 1..63.
        top_bits = 1 + (7 * k) % 63
        v = lcg_int(0xD1F00000 + k, 64 * (k - 1) + top_bits)
        for w in sorted({k, k + 1, 2 * k, 2 * k + 1}):
            cases.append((lcg_int(0xD1F10000 + 16 * k + w, 64 * w), v))
        v_top = lcg_int(0xD1F20000 + k, 64 * k)  # top bit set: shift 0
        cases.append((lcg_int(0xD1F30000 + k, 64 * (2 * k + 1)), v_top))
        ones = ((1 << 64) - 1) << (64 * (k - 1))
        v_ones = ones | v_top % (1 << (64 * (k - 1)))
        u_ones = ((1 << 64) - 1) << (64 * 2 * k) | lcg_int(
            0xD1F40000 + k, 64 * 2 * k)
        cases.append((u_ones, v_ones))
        cases.append((u_ones, v))
    cases.append((lcg_int(0xD1F50000, 100), lcg_int(0xD1F50001, 200)))
    add_back = [(u << (64 * e), v << (64 * e))
                for u, v in DIVMOD_ADD_BACK for e in range(6)]
    lines = ["static const GeneratedDivModVector kGeneratedDivModVectors[] = {"]
    for u, v in cases + add_back:
        q, r = divmod(u, v)
        lines.append('    {"%x",' % u)
        lines.append('     "%x",' % v)
        lines.append('     "%x",' % q)
        lines.append('     "%x"},' % r)
    lines.append("};")
    lines.append("")
    return lines


def sha512_lines():
    lines = ["static const GeneratedShaVector kGeneratedSha512Vectors[] = {"]
    for i, n in enumerate(SHA512_LENGTHS):
        msg = lcg_bytes(0x51200000 + i, n)
        lines.append('    {"%s",' % msg.hex())
        lines.append('     "%s"},' % hashlib.sha512(msg).hexdigest())
    lines.append("};")
    lines.append("")
    return lines


# RFC 8032 §6's reference code, signing half, as the RFC gives it.
ED_Q = 2**252 + 27742317777372353535851937790883648493
ED_D = -121665 * pow(121666, P25519 - 2, P25519) % P25519


def ed_sha512_modq(s: bytes) -> int:
    return int.from_bytes(hashlib.sha512(s).digest(), "little") % ED_Q


def ed_point_add(P, Q):
    p = P25519
    A, B = (P[1] - P[0]) * (Q[1] - Q[0]) % p, (P[1] + P[0]) * (Q[1] + Q[0]) % p
    C, D = 2 * P[3] * Q[3] * ED_D % p, 2 * P[2] * Q[2] % p
    E, F, G, H = B - A, D - C, D + C, B + A
    return (E * F, G * H, F * G, E * H)


def ed_point_mul(s: int, P):
    Q = (0, 1, 1, 0)
    while s > 0:
        if s & 1:
            Q = ed_point_add(Q, P)
        P = ed_point_add(P, P)
        s >>= 1
    return Q


def ed_recover_x(y: int, sign: int) -> int:
    p = P25519
    x2 = (y * y - 1) * pow(ED_D * y * y + 1, p - 2, p)
    x = pow(x2, (p + 3) // 8, p)
    if (x * x - x2) % p != 0:
        x = x * pow(2, (p - 1) // 4, p) % p
    if (x & 1) != sign:
        x = p - x
    return x


ED_GY = 4 * pow(5, P25519 - 2, P25519) % P25519
ED_G = (ed_recover_x(ED_GY, 0), ED_GY, 1,
        ed_recover_x(ED_GY, 0) * ED_GY % P25519)


def ed_point_compress(P) -> bytes:
    zinv = pow(P[2], P25519 - 2, P25519)
    x, y = P[0] * zinv % P25519, P[1] * zinv % P25519
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def ed_sign(secret: bytes, msg: bytes):
    h = hashlib.sha512(secret).digest()
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    A = ed_point_compress(ed_point_mul(a, ED_G))
    r = ed_sha512_modq(h[32:] + msg)
    Rs = ed_point_compress(ed_point_mul(r, ED_G))
    k = ed_sha512_modq(Rs + A + msg)
    return A, Rs + int.to_bytes((r + k * a) % ED_Q, 32, "little")


def ed25519_lines():
    lines = ["static const GeneratedEd25519Vector kGeneratedEd25519Vectors[] = {"]
    for i, n in enumerate(ED25519_LENGTHS):
        seed = lcg_bytes(0xED250000 + i, 32)
        msg = lcg_bytes(0xED251000 + i, n)
        public, signature = ed_sign(seed, msg)
        lines.append('    {"%s",' % seed.hex())
        lines.append('     "%s",' % public.hex())
        lines.append('     "%s",' % msg.hex())
        lines.append('     "%s"},' % signature.hex())
    lines.append("};")
    lines.append("")
    return lines


def main() -> None:
    lines = []
    lines.append("// Generated by tools/gen_kat.py — do not edit by hand.")
    lines.append("// Reference: CPython hashlib/hmac, pow(), divmod(), an RFC 7748")
    lines.append("// ladder on Python ints and RFC 8032 §6's Ed25519 code")
    lines.append("// (independent of this repository's SHA-256 / SHA-512 / HMAC /")
    lines.append("// bignum / X25519 / Ed25519 implementations).")
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
    lines.append("// Hex, little-endian as in RFC 7748: result = X25519(scalar, u).")
    lines.append("struct GeneratedX25519Vector {")
    lines.append("  const char* scalar;")
    lines.append("  const char* u;")
    lines.append("  const char* result;")
    lines.append("};")
    lines.append("")
    lines.append("// Hex, most significant digit first: divmod(dividend, divisor).")
    lines.append("struct GeneratedDivModVector {")
    lines.append("  const char* dividend;")
    lines.append("  const char* divisor;")
    lines.append("  const char* quotient;")
    lines.append("  const char* remainder;")
    lines.append("};")
    lines.append("")
    lines.append("// Hex, as RFC 8032 writes them: signature = Sign(seed, message).")
    lines.append("struct GeneratedEd25519Vector {")
    lines.append("  const char* seed;")
    lines.append("  const char* public_key;")
    lines.append("  const char* message;")
    lines.append("  const char* signature;")
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
    lines.extend(x25519_lines())
    lines.extend(divmod_lines())
    lines.extend(sha512_lines())
    lines.extend(ed25519_lines())

    with open(OUT, "w") as f:
        f.write("\n".join(lines))
    print("wrote", os.path.normpath(OUT))


if __name__ == "__main__":
    main()
