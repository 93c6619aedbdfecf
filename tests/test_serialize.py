"""Tests for JSON and CSV encodings of package objects."""

import csv
import io

import numpy as np
import pytest

from pvi import flow, fuchsian, modular, params, serialize


def test_complex_round_trip():
    z = 1.25 - 0.5j
    assert serialize.decode_complex(serialize.encode_complex(z)) == z
    assert serialize.encode_complex(z) == [1.25, -0.5]
    # bare numbers are accepted as real values
    assert serialize.decode_complex(2.0) == 2.0 + 0.0j


def test_complex_seq_length_check():
    vals = serialize.decode_complex_seq([[0.0, 1.0], 2.0, [3.0, 0.0]], n=3)
    assert list(vals) == [1j, 2.0 + 0j, 3.0 + 0j]
    with pytest.raises(ValueError):
        serialize.decode_complex_seq([1.0, 2.0], n=3)


def test_exponents_round_trip():
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    obj = serialize.encode_exponents(k)
    back = serialize.decode_exponents(obj)
    assert np.max(np.abs(back.as_array() - k.as_array())) == 0.0


def test_exponents_from_free_components():
    back = serialize.decode_exponents({"kappa_free": [0.21, 0.33, 0.17, 0.11]})
    want = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    assert np.max(np.abs(back.as_array() - want.as_array())) == 0.0


def test_phase_point_round_trip():
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0 + 0.1j), k)
    back = serialize.decode_phase_point(serialize.encode_phase_point(pt))
    assert back.q == pt.q and back.p == pt.p
    assert np.max(np.abs(np.asarray(back.t) - np.asarray(pt.t))) == 0.0
    assert np.max(np.abs(back.kappa.as_array() - pt.kappa.as_array())) == 0.0


def test_ambient_point_round_trip():
    pt = modular.AmbientPoint.make([2.0, 2.0, 2.0], [8.0, 8.0, 8.0, 28.0])
    obj = {"x": [[2.0, 0.0], 2.0, [2.0, 0.0]], "theta": [8.0, [8.0, 0.0], 8.0, [28.0, 0.0]]}
    back = serialize.decode_ambient_point(obj)
    assert np.max(np.abs(back.x - pt.x)) == 0.0
    assert np.max(np.abs(back.theta - pt.theta)) == 0.0


def test_orbit_csv_shape_and_determinism():
    pt = modular.AmbientPoint.make([2.0, 2.0, 2.0], [8.0, 8.0, 8.0, 28.0])
    samples = modular.orbit(pt, [1, 1], 4)
    buf1, buf2 = io.StringIO(), io.StringIO()
    serialize.write_orbit_csv(buf1, samples)
    serialize.write_orbit_csv(buf2, samples)
    assert buf1.getvalue() == buf2.getvalue()
    rows = list(csv.reader(io.StringIO(buf1.getvalue())))
    assert tuple(rows[0]) == serialize.ORBIT_HEADER
    assert len(rows) == 1 + len(samples)
    # numeric cells parse back to floats
    assert float(rows[1][1]) == 2.0


def test_trajectory_csv_columns():
    k = params.Exponents.from_free(0.21, 0.33, 0.17, 0.11)
    pt = fuchsian.PhasePoint.make(0.4 + 0.3j, 0.2 - 0.5j, (0.0, 1.0, 2.0), k)
    traj = flow.integrate(pt, flow.TimePath.make([(0, 1, 2), (0, 1, 2.2)]))
    buf = io.StringIO()
    serialize.write_trajectory_csv(buf, traj)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == serialize.TRAJECTORY_HEADER
    assert len(rows) == 1 + len(traj)
    # without residuals the last column is nan
    assert rows[1][-1] == "nan"
    # arclength column is monotone
    arcs = [float(r[0]) for r in rows[1:]]
    assert arcs == sorted(arcs)
    # H1 columns reproduce the Hamiltonian at the first sample
    h1 = fuchsian.hamiltonian(1, pt)
    assert abs(complex(float(rows[1][7]), float(rows[1][8])) - h1) < 1e-12
