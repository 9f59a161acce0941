import pytest

from qdiam.errors import NonPrimePower, ZeroInverse
from qdiam.gfq import SUPPORTED_ORDERS, field_new


def multiplicative_generator(spec):
    """Smallest element generating the cyclic group of nonzero elements."""
    target = spec.q - 1
    for g in range(1, spec.q):
        x = g
        order = 1
        while x != 1:
            x = spec.mul(x, g)
            order += 1
        if order == target:
            return g
    raise NonPrimePower(f"GF({spec.q}) tables do not form a field")


def test_prime_field_basics():
    f2 = field_new(2)
    assert f2.add(1, 1) == 0
    f3 = field_new(3)
    assert f3.mul(2, 2) == 1
    assert f3.neg(1) == 2


def test_gf4_generator_relation():
    # with reduction x^2 + x + 1, the generator a (=2) satisfies a*a = a+1
    f4 = field_new(4)
    assert f4.mul(2, 2) == 3
    assert f4.inv(2) == 3
    assert f4.add(2, 3) == 1


@pytest.mark.parametrize("q", [6, 10, 12, 14, 15])
def test_non_prime_power_rejected(q):
    with pytest.raises(NonPrimePower):
        field_new(q)


@pytest.mark.parametrize("q", [17, 25, 32])
def test_unsupported_order_rejected(q):
    with pytest.raises(NonPrimePower):
        field_new(q)


def test_inverse_of_zero():
    with pytest.raises(ZeroInverse):
        field_new(5).inv(0)
    with pytest.raises(ZeroInverse):
        field_new(4).inv(0)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_new(q)
    elems = range(q)
    for x in elems:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.mul(x, 0) == 0
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
        for y in elems:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in elems:
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_nonzero_elements_cyclic(q):
    f = field_new(q)
    g = multiplicative_generator(f)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, g)
    assert seen == set(range(1, q))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_characteristic_and_degree(q):
    f = field_new(q)
    assert f.p ** f.e == q
    # characteristic: adding 1 to itself p times gives 0
    x = 0
    for _ in range(f.p):
        x = f.add(x, 1)
    assert x == 0
    if f.e == 1:
        assert f.reduction_poly == ()
    else:
        assert len(f.reduction_poly) == f.e + 1
        assert f.reduction_poly[-1] == 1


def test_field_instances_cached():
    assert field_new(8) is field_new(8)


def test_reduction_polynomials_pinned():
    # fixed choices, ascending coefficients, monic; relabeling-only freedom
    assert field_new(4).reduction_poly == (1, 1, 1)        # x^2+x+1
    assert field_new(8).reduction_poly == (1, 1, 0, 1)     # x^3+x+1
    assert field_new(9).reduction_poly == (2, 2, 1)        # x^2+2x+2
    assert field_new(16).reduction_poly == (1, 1, 0, 0, 1)  # x^4+x+1
