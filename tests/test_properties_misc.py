"""Property-based tests: units round-trips, stripe conservation, purge
safety, RAID capacity arithmetic, and the namespace fast paths against
the loops they replaced."""

import posixpath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.raid import RaidGeometry
from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.namespace import Namespace, StripeLayout, _normalize
from repro.lustre.ost import Ost, OstSpec, fill_penalty
from repro.tools.purger import Purger
from repro.units import DAY, KiB, MiB, TB, fmt_size, parse_size


class TestUnitsProperties:
    @given(st.integers(0, 10**18))
    @settings(max_examples=200)
    def test_parse_size_int_identity(self, n):
        assert parse_size(n) == n

    @given(st.floats(0.001, 999.0), st.sampled_from(["KB", "MB", "GB", "TB", "PB"]))
    @settings(max_examples=200)
    def test_parse_decimal_scaling(self, value, suffix):
        import repro.units as u
        factor = getattr(u, suffix)
        assert parse_size(f"{value:.3f} {suffix}") == round(
            float(f"{value:.3f}") * factor)


class TestStripeProperties:
    @given(
        st.integers(1, 32),  # stripe count
        st.integers(1, 8),  # stripe size in 64 KiB units
        st.integers(0, 10**12),  # file size
    )
    @settings(max_examples=300)
    def test_share_conservation_and_balance(self, count, ss_units, size):
        layout = StripeLayout(osts=tuple(range(count)),
                              stripe_size=ss_units * 64 * KiB)
        shares = layout.ost_share(size)
        # conservation
        assert sum(shares.values()) == size
        # balance: shares differ by at most one stripe
        values = list(shares.values())
        assert max(values) - min(values) <= layout.stripe_size


def _loop_ost_share(layout, size):
    """The stripe-by-stripe walk the closed-form ``ost_share`` replaced,
    kept as the reference its result must equal exactly."""
    shares = {ost: 0 for ost in layout.osts}
    full_rounds, rem = divmod(size, layout.stripe_size * layout.stripe_count)
    for ost in layout.osts:
        shares[ost] += full_rounds * layout.stripe_size
    i = 0
    while rem > 0:
        take = min(rem, layout.stripe_size)
        shares[layout.osts[i % layout.stripe_count]] += take
        rem -= take
        i += 1
    return shares


@st.composite
def _layout_and_size(draw):
    osts = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=6)))
    layout = StripeLayout(osts=osts, stripe_size=draw(st.integers(1, 5)))
    period = layout.stripe_size * layout.stripe_count
    # sizes around multiples of a full round, where the remainder wraps
    size = draw(st.one_of(
        st.just(0),
        st.integers(0, 5 * period),
        st.builds(lambda k, d: max(0, k * period + d),
                  st.integers(0, 4), st.integers(-2, 2))))
    return layout, size


class TestFastPathOracles:
    @given(_layout_and_size())
    @settings(max_examples=400)
    def test_ost_share_equals_the_stripe_walk(self, case):
        layout, size = case
        assert (list(layout.ost_share(size).items())
                == list(_loop_ost_share(layout, size).items()))

    @given(st.lists(st.sampled_from(["", ".", "..", ".hidden", "a"]),
                    max_size=6),
           st.booleans())
    @settings(max_examples=400)
    def test_normalize_equals_normpath(self, segments, trailing):
        path = "/" + "/".join(segments) + ("/" if trailing else "")
        expected = posixpath.normpath(path)
        if expected.startswith("//"):  # the root, however it is spelled
            expected = expected[1:]
        assert _normalize(path) == expected


class TestFillPenaltyProperties:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert fill_penalty(lo) >= fill_penalty(hi) - 1e-12

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=100)
    def test_bounded(self, fill):
        assert 0.35 <= fill_penalty(fill) <= 1.0


class TestRaidProperties:
    @given(st.integers(1, 16), st.integers(0, 4))
    @settings(max_examples=100)
    def test_usable_fraction(self, n_data, n_parity):
        g = RaidGeometry(n_data=n_data, n_parity=n_parity)
        assert g.width == n_data + n_parity
        assert 0 < g.usable_fraction() <= 1
        assert g.usable_fraction() == pytest.approx(n_data / g.width)


class TestPurgeSafetyProperty:
    @given(
        st.lists(
            st.tuples(st.floats(0, 30), st.floats(0, 30), st.booleans()),
            min_size=1, max_size=40,
        ),
        st.floats(10.0, 60.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_purge_never_removes_recent_files(self, files, now_days):
        """For any creation/access history and any sweep time, no file
        touched within the window is deleted, and every deleted file was
        stale — both directions of the 14-day policy."""
        osts = [Ost(0, OstSpec(capacity_bytes=100 * TB))]
        fs = LustreFilesystem("scratch", osts, default_stripe_count=1)
        now = now_days * DAY
        expectations = {}
        for i, (created_d, accessed_d, do_access) in enumerate(files):
            created = created_d * DAY
            path = f"/f{i}"
            fs.create_file(path, now=created, size=1024)
            touched = created
            if do_access and accessed_d >= created_d:
                fs.read_file(path, now=accessed_d * DAY)
                touched = accessed_d * DAY
            expectations[path] = (now - touched) > 14 * DAY
        Purger(fs).sweep(now=now)
        for path, should_be_gone in expectations.items():
            assert (path not in fs.namespace) == should_be_gone
