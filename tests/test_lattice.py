import numpy as np
import pytest
from hypothesis import given, strategies as st

from martpara.lattice import MAX_LEAVES, Atom, build_lattice


lattice_params = st.tuples(st.integers(2, 4), st.integers(1, 4))


def test_build_sizes():
    assert build_lattice(2, 1).n_atoms == 3
    assert build_lattice(3, 2).n_atoms == 13
    assert build_lattice(3, 2).n_leaves == 9
    assert build_lattice(2 ** 12, 2).n_leaves == MAX_LEAVES


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        build_lattice(1, 3)
    with pytest.raises(ValueError):
        build_lattice(2, 17)
    with pytest.raises(ValueError):
        build_lattice(2, 0)
    # rejected before any leaf array is allocated
    with pytest.raises(ValueError, match="leaves"):
        build_lattice(1000, 6)
    with pytest.raises(ValueError, match="leaves"):
        build_lattice(2 ** 12 + 1, 2)


def test_parent_children_binary_depth1():
    lat = build_lattice(2, 1)
    assert lat.parent(lat.root) is None
    assert lat.children(lat.root) == [Atom(1, 0), Atom(1, 1)]
    assert lat.parent(Atom(1, 1)) == lat.root
    assert lat.children(Atom(1, 1)) == []


def test_parent_children_ternary_index_arithmetic():
    lat = build_lattice(3, 2)
    assert lat.parent(Atom(1, 1)) == lat.root
    assert lat.children(Atom(1, 1)) == [Atom(2, 3), Atom(2, 4), Atom(2, 5)]


def test_invalid_atom_rejected():
    lat = build_lattice(2, 2)
    for atom in (Atom(3, 0), Atom(1, 2)):
        with pytest.raises(ValueError):
            lat.parent(atom)
        with pytest.raises(ValueError):
            lat.children(atom)


@given(lattice_params)
def test_every_atom_is_child_of_its_parent(params):
    arity, depth = params
    lat = build_lattice(arity, depth)
    for atom in lat.atoms():
        if atom.depth == 0:
            continue
        assert atom in lat.children(lat.parent(atom))


@given(lattice_params)
def test_navigation_is_deterministic(params):
    arity, depth = params
    lat = build_lattice(arity, depth)
    atoms = list(lat.atoms())
    assert atoms == list(lat.atoms())
    for atom in atoms:
        assert lat.parent(atom) == lat.parent(atom)
        assert lat.children(atom) == lat.children(atom)


def test_leaf_slice_and_contains():
    lat = build_lattice(3, 2)
    assert lat.leaf_slice(Atom(1, 2)) == slice(6, 9)
    assert lat.contains(Atom(1, 2), Atom(2, 7))
    assert not lat.contains(Atom(1, 1), Atom(2, 7))


def test_chain_sum_matches_manual():
    lat = build_lattice(2, 2)
    terms = np.array([1.0, 10.0, 20.0, 0.0, 1.0, 2.0, 3.0])
    assert np.allclose(lat.chain_sum(terms), [11.0, 12.0, 23.0, 24.0])
    assert np.allclose(lat.chain_sum(terms[1:], 1), [10.0, 11.0, 22.0, 23.0])
    assert np.allclose(lat.chain_sum(terms[:3]), [11.0, 11.0, 21.0, 21.0])


def test_block_sums_shapes():
    lat = build_lattice(2, 2)
    sums = lat.block_sums(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(sums[0], [10.0])
    assert np.allclose(sums[1], [3.0, 7.0])
    assert np.allclose(sums[2], [1.0, 2.0, 3.0, 4.0])
