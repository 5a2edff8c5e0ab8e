"""Namespace and striping tests."""

import pytest

from repro.lustre.filesystem import LustreFilesystem
from repro.lustre.namespace import Namespace, NamespaceError, StripeLayout
from repro.lustre.ost import Ost, OstSpec
from repro.units import MiB, TB


class TestStripeLayout:
    def test_even_distribution(self):
        layout = StripeLayout(osts=(0, 1, 2, 3), stripe_size=MiB)
        shares = layout.ost_share(8 * MiB)
        assert shares == {0: 2 * MiB, 1: 2 * MiB, 2: 2 * MiB, 3: 2 * MiB}

    def test_remainder_goes_to_leading_stripes(self):
        layout = StripeLayout(osts=(0, 1), stripe_size=MiB)
        shares = layout.ost_share(3 * MiB + 10)
        assert shares[0] == 2 * MiB
        assert shares[1] == MiB + 10
        assert sum(shares.values()) == 3 * MiB + 10

    def test_single_ost(self):
        layout = StripeLayout(osts=(7,))
        assert layout.ost_share(123456) == {7: 123456}

    def test_share_conserves_bytes(self):
        layout = StripeLayout(osts=(0, 1, 2), stripe_size=64 * 1024)
        for size in (0, 1, 64 * 1024, 1_000_000, 10_000_001):
            assert sum(layout.ost_share(size).values()) == size

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeLayout(osts=())
        with pytest.raises(ValueError):
            StripeLayout(osts=(0,), stripe_size=0)
        with pytest.raises(ValueError):
            StripeLayout(osts=(0,)).ost_share(-1)


class TestNamespace:
    def test_root_exists(self):
        ns = Namespace()
        assert "/" in ns
        assert ns.get("/").is_dir

    def test_mkdir_and_create(self):
        ns = Namespace()
        ns.mkdir("/proj", now=1.0)
        layout = StripeLayout(osts=(0,))
        entry = ns.create("/proj/a.dat", layout, now=2.0, size=100)
        assert entry.size == 100
        assert ns.n_files == 1
        assert ns.listdir("/proj") == ["/proj/a.dat"]

    def test_mkdir_parents(self):
        ns = Namespace()
        ns.mkdir("/a/b/c", parents=True)
        assert "/a/b" in ns

    def test_leading_double_slash_is_the_root(self):
        # posixpath.normpath keeps a leading "//"; the namespace must not.
        ns = Namespace()
        assert ns.mkdir("//", parents=True) is ns.get("/")
        ns.mkdir("//a/b", parents=True)
        assert "//a" in ns and "/a/b" in ns
        assert ns.get("//a/b") is ns.get("/a/b")
        assert ns.listdir("/") == ["/a"]

    def test_filesystem_mkdir_with_leading_double_slash(self):
        fs = LustreFilesystem("t", [Ost(0, OstSpec(capacity_bytes=TB))])
        fs.mkdir("//a/b", 0.0)
        assert fs.namespace.listdir("/a") == ["/a/b"]

    def test_create_without_parent_fails(self):
        ns = Namespace()
        with pytest.raises(NamespaceError):
            ns.create("/missing/x", StripeLayout(osts=(0,)))

    def test_duplicate_create_fails(self):
        ns = Namespace()
        layout = StripeLayout(osts=(0,))
        ns.create("/x", layout)
        with pytest.raises(NamespaceError):
            ns.create("/x", layout)

    def test_relative_path_rejected(self):
        ns = Namespace()
        with pytest.raises(NamespaceError):
            ns.get("x")

    def test_write_updates_size_and_mtime(self):
        ns = Namespace()
        ns.create("/f", StripeLayout(osts=(0,)), now=0.0)
        ns.write("/f", 500, now=10.0)
        entry = ns.get("/f")
        assert entry.size == 500 and entry.mtime == 10.0

    def test_read_updates_atime(self):
        ns = Namespace()
        ns.create("/f", StripeLayout(osts=(0,)), now=0.0)
        ns.read("/f", now=99.0)
        assert ns.get("/f").atime == 99.0

    def test_last_touched_is_max_of_times(self):
        ns = Namespace()
        entry = ns.create("/f", StripeLayout(osts=(0,)), now=5.0)
        assert entry.last_touched() == 5.0
        ns.read("/f", now=50.0)
        assert entry.last_touched() == 50.0

    def test_unlink_file(self):
        ns = Namespace()
        ns.create("/f", StripeLayout(osts=(0,)))
        ns.unlink("/f")
        assert "/f" not in ns
        assert ns.n_files == 0

    def test_unlink_nonempty_dir_fails(self):
        ns = Namespace()
        ns.mkdir("/d")
        ns.create("/d/f", StripeLayout(osts=(0,)))
        with pytest.raises(NamespaceError):
            ns.unlink("/d")

    def test_unlink_root_fails(self):
        with pytest.raises(NamespaceError):
            Namespace().unlink("/")

    def test_walk_depth_first_complete(self):
        ns = Namespace()
        ns.mkdir("/a")
        ns.mkdir("/a/b")
        layout = StripeLayout(osts=(0,))
        ns.create("/a/x", layout)
        ns.create("/a/b/y", layout)
        paths = [e.path for e in ns.walk()]
        assert set(paths) == {"/", "/a", "/a/b", "/a/x", "/a/b/y"}

    def test_files_and_total_bytes(self):
        ns = Namespace()
        layout = StripeLayout(osts=(0,))
        ns.create("/f1", layout, size=10)
        ns.create("/f2", layout, size=20)
        assert ns.total_bytes() == 30
        assert len(list(ns.files())) == 2

    def test_select(self):
        ns = Namespace()
        layout = StripeLayout(osts=(0,))
        ns.create("/big", layout, size=1000)
        ns.create("/small", layout, size=1)
        big = ns.select(lambda f: f.size > 100)
        assert [f.path for f in big] == ["/big"]

    def test_path_normalization(self):
        ns = Namespace()
        ns.mkdir("/a")
        ns.create("/a//f", StripeLayout(osts=(0,)))
        assert "/a/f" in ns


class TestOrderingDeterminism:
    """Insertion order must be invisible: listdir and walk sort children,
    so any permutation of creates yields identical views.  The metatier
    sharded namespace inherits this contract shard by shard."""

    NAMES = ["zeta", "alpha", "mid", "b", "a0", "A9"]

    def _build(self, order):
        ns = Namespace("perm")
        ns.mkdir("/d", now=0.0, parents=True)
        for name in order:
            ns.create(f"/d/{name}", None, now=1.0)
        return ns

    def test_listdir_identical_across_insertion_permutations(self):
        import itertools
        ref = self._build(self.NAMES).listdir("/d")
        assert ref == sorted(f"/d/{n}" for n in self.NAMES)
        for perm in itertools.permutations(self.NAMES, len(self.NAMES)):
            assert self._build(perm).listdir("/d") == ref

    def test_walk_order_identical_across_insertion_permutations(self):
        ref = [e.path for e in self._build(self.NAMES).walk()]
        reversed_ns = self._build(list(reversed(self.NAMES)))
        assert [e.path for e in reversed_ns.walk()] == ref
