import random
import sys

import pytest

from quandles.intmat import in_row_span
from quandles.laurent import (
    ONE_MINUS_T,
    LaurentPoly,
    ParseError,
    eval_one,
    format_poly,
    gcd_vec,
    parse_poly,
    split_one_minus_t,
    syzygy_basis,
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def rand_poly(rng, span=4, coeff=10):
    lo = rng.randint(-span, span)
    hi = lo + rng.randint(0, 5)
    return LaurentPoly({e: rng.randint(-coeff, coeff) for e in range(lo, hi + 1)})


class TestEvalOne:
    def test_quadratic(self):
        assert eval_one(parse_poly("t^2+t+1")) == 3

    def test_zero(self):
        assert eval_one(LaurentPoly()) == 0

    def test_with_negative_exponent(self):
        assert eval_one(parse_poly("6 - 2*t^-1 + 2t")) == 6

    def test_ring_homomorphism(self):
        rng = random.Random(1)
        for _ in range(300):
            f, g = rand_poly(rng), rand_poly(rng)
            assert eval_one(f * g) == eval_one(f) * eval_one(g)
            assert eval_one(f + g) == eval_one(f) + eval_one(g)


class TestSplitOneMinusT:
    def test_quadratic(self):
        q, c = split_one_minus_t(parse_poly("t^2+t+1"))
        assert c == 3
        assert q == parse_poly("-t-2")

    def test_constant(self):
        q, c = split_one_minus_t(LaurentPoly.const(6))
        assert (q, c) == (LaurentPoly(), 6)

    def test_single_t(self):
        q, c = split_one_minus_t(LaurentPoly.t())
        assert q == LaurentPoly.const(-1)
        assert c == 1

    def test_identity_holds_exactly(self):
        rng = random.Random(2)
        for _ in range(500):
            f = rand_poly(rng, coeff=50)
            q, c = split_one_minus_t(f)
            assert ONE_MINUS_T * q + c == f


class TestGcdVec:
    def test_pair(self):
        assert gcd_vec((6, 3)) == 3

    def test_zero_vector(self):
        assert gcd_vec((0, 0)) == 0

    def test_euclid(self):
        # oracle: gcd(gcd(4, 6), 9) = gcd(2, 9) = 1
        assert gcd_vec((4, 6, 9)) == 1


class TestSyzygyBasis:
    def test_pair(self):
        basis = syzygy_basis((6, 3))
        assert basis == ((1, -2),)
        assert 6 * 1 + 3 * (-2) == 0

    def test_injective(self):
        assert syzygy_basis((5,)) == ()

    def test_zero_map(self):
        assert syzygy_basis((0, 0)) == ((1, 0), (0, 1))

    def test_orthogonality_and_rank(self):
        rng = random.Random(3)
        for _ in range(400):
            k = rng.randint(1, 6)
            c = [rng.randint(-30, 30) for _ in range(k)]
            basis = syzygy_basis(c)
            assert len(basis) == (k - 1 if any(c) else k)
            for v in basis:
                assert sum(a * b for a, b in zip(v, c)) == 0

    def test_completeness(self):
        # independently built syzygies must reduce to zero against the basis
        rng = random.Random(4)
        for _ in range(300):
            k = rng.randint(2, 5)
            c = [rng.randint(-10, 10) for _ in range(k)]
            basis = [list(v) for v in syzygy_basis(c)]
            probe = [0] * k
            for _ in range(4):
                i, j = rng.randrange(k), rng.randrange(k)
                if i == j:
                    continue
                s = rng.randint(-4, 4)
                probe[i] += s * c[j]
                probe[j] -= s * c[i]
            assert sum(p * x for p, x in zip(probe, c)) == 0
            if any(probe):
                assert in_row_span(basis, probe)


class TestShifting:
    def test_shift_preserves_eval_and_split_consistency(self):
        rng = random.Random(5)
        for _ in range(200):
            f = rand_poly(rng)
            k = rng.randint(-3, 3)
            assert eval_one(f * LaurentPoly.t(k)) == eval_one(f)


class TestFormat:
    @pytest.mark.parametrize("text,canon", [
        ("t^2+t+1", "1+t+t^2"),
        ("6", "6"),
        ("2*t^-1 - 3", "2t^-1-3"),
        ("0", "0"),
        ("-t", "-t"),
        ("1+2t", "1+2t"),
        ("2t+4", "4+2t"),
        ("t + t", "2t"),
    ])
    def test_round_trip(self, text, canon):
        f = parse_poly(text)
        assert format_poly(f) == canon
        assert parse_poly(format_poly(f)) == f

    def test_seeded_round_trip(self):
        # negative exponents, the zero polynomial and coefficients up to 10^6
        rng = random.Random(11)
        for _ in range(3000):
            f = rand_poly(rng, span=8, coeff=10 ** 6) if rng.random() > 0.05 else LaurentPoly()
            assert parse_poly(format_poly(f)) == f, f


PARSE_ERRORS = [
    ("", "expected a term", 0),
    ("   ", "expected a term", 3),
    ("2*", "expected 't'", 2),
    ("2 * 3", "expected 't'", 4),
    ("t^", "expected an integer exponent", 2),
    ("t^x", "expected an integer exponent", 2),
    ("t ^ - 2", "expected an integer exponent", 5),
    ("2 3", "expected '+' or '-'", 2),
    ("t2", "expected '+' or '-'", 1),
    ("2t^3t", "expected '+' or '-'", 4),
    ("x", "expected a coefficient or 't'", 0),
    ("1+", "expected a coefficient or 't'", 2),
    ("*t", "expected a coefficient or 't'", 0),
    ("+ *t", "expected a coefficient or 't'", 2),
    ("--t", "expected a coefficient or 't'", 1),
    # superscript digits pass str.isdigit but not int(): refused in place
    ("t^\u00b2", "expected an integer exponent", 2),
    ("\u00b2t", "expected a coefficient or 't'", 0),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,message,pos", PARSE_ERRORS,
                             ids=[f"{text}-{pos}" for text, _, pos in PARSE_ERRORS])
    def test_position_reported(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.message, err.value.position) == (message, pos)

    @pytest.mark.parametrize("text,canon", [
        (" - 2 * t ^ -3 ", "-2t^-3"),
        ("2 t", "2t"),
        ("t ^2 + 3", "3+t^2"),
    ])
    def test_spacing_accepted(self, text, canon):
        assert format_poly(parse_poly(text)) == canon

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer string conversion limit")
    def test_integer_past_the_digit_limit_names_its_digits(self):
        long, fits = "9" * (DIGIT_LIMIT + 1), "9" * DIGIT_LIMIT
        for text, pos in [(f"{long}t", 0), (f"t + {long}", 4), (f"-t^{long}", 3), (f"t^-{long}", 3),
                          (f"{long}t^{long}", 0), (f"{fits}t^{long}", DIGIT_LIMIT + 2)]:
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert (err.value.message, err.value.position) == ("integer too long", pos)
        assert parse_poly(f"{fits}t") == int(fits) * LaurentPoly.t()


class TestArithmetic:
    def test_int_mixing(self):
        t = LaurentPoly.t()
        assert 2 * t + 4 == parse_poly("2t+4")
        assert (1 - t) == ONE_MINUS_T
        assert t - t == LaurentPoly()

    def test_hashable_and_equal(self):
        assert hash(parse_poly("1+2t")) == hash(parse_poly("2t+1"))
        assert parse_poly("1+2t") == parse_poly("2t+1")
