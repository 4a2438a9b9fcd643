#!/usr/bin/env python3
"""Fixtures for tools/link_census.py: small nm-style listings of one
library and two binaries stand in for real `nm --defined-only -C` output.

Run: python3 tools/link_census_test.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import link_census  # noqa: E402

# An archive listing: member headers, strong (T) and local (t) functions,
# a weak inline function (W) and data (D, B).
LIB = """
tracker.cpp.o:
0000000000000000 T btpub::Tracker::announce_into(btpub::AnnounceRequest const&)
0000000000000040 T btpub::Tracker::scrape[abi:cxx11](btpub::Sha1Digest const&, long)
0000000000000080 t (anonymous namespace)::put_u32(std::string&, unsigned int)
0000000000000000 W btpub::Swarm::finalized() const
0000000000000000 D btpub::kTable
0000000000000000 B btpub::g_counter

udp.cpp.o:
0000000000000000 T btpub::UdpConnectRequest::encode_into(std::string&) const
"""

BIN_SERVE = """
0000000000401000 T main
0000000000402000 T btpub::Tracker::announce_into(btpub::AnnounceRequest const&)
0000000000403000 T btpub::UdpConnectRequest::encode_into(std::string&) const
0000000000404000 W btpub::Swarm::finalized() const
"""

BIN_SCRAPE = """
0000000000401000 T main
0000000000405000 T btpub::Tracker::scrape[abi:cxx11](btpub::Sha1Digest const&, long)
"""

PLANTED = "btpub::Tracker::unused_helper() const"


class LinkCensusTest(unittest.TestCase):
    def census(self, lib, bins, allow=""):
        """Runs main() over the fixtures; returns its exit code."""
        bin_names = [f"bin{i}" for i in range(len(bins))]
        listings = {"lib.a": lib, **dict(zip(bin_names, bins))}
        with tempfile.TemporaryDirectory() as tmp:
            allow_path = os.path.join(tmp, "allow.txt")
            with open(allow_path, "w") as fh:
                fh.write(allow)
            saved = link_census.run_nm, link_census.ALLOW_FILE
            link_census.run_nm = listings.__getitem__
            link_census.ALLOW_FILE = allow_path
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = link_census.main(
                        ["link_census.py", "--lib", "lib.a", "--bin"]
                        + bin_names)
            finally:
                link_census.run_nm, link_census.ALLOW_FILE = saved
        self.output = out.getvalue()
        return code

    def test_fully_linked_set_passes(self):
        self.assertEqual(self.census(LIB, [BIN_SERVE, BIN_SCRAPE]), 0)
        self.assertIn("0 unlinked", self.output)

    def test_planted_unlinked_function_fails(self):
        planted = LIB + f"00000000000000c0 T {PLANTED}\n"
        self.assertEqual(self.census(planted, [BIN_SERVE, BIN_SCRAPE]), 1)
        self.assertIn(f"UNLINKED  {PLANTED}", self.output)
        # A function only one binary links is linked.
        self.assertNotIn("scrape", self.output.split("UNLINKED")[-1])

    def test_allow_listed_function_passes(self):
        planted = LIB + f"00000000000000c0 T {PLANTED}\n"
        allow = f"# comment\n\n{PLANTED}  # kept for a reason\n"
        self.assertEqual(
            self.census(planted, [BIN_SERVE, BIN_SCRAPE], allow), 0)
        self.assertIn(f"allowed  {PLANTED}", self.output)

    def test_function_no_binary_links_fails_without_the_other_binary(self):
        self.assertEqual(self.census(LIB, [BIN_SERVE]), 1)
        self.assertIn("UNLINKED  btpub::Tracker::scrape", self.output)

    def test_stale_allow_entry_fails(self):
        allow = ("btpub::Tracker::announce_into(btpub::AnnounceRequest const&)"
                 "  # no longer needed\n")
        self.assertEqual(self.census(LIB, [BIN_SERVE, BIN_SCRAPE], allow), 1)
        self.assertIn("STALE", self.output)

    def test_allow_entry_without_reason_is_a_usage_error(self):
        self.assertEqual(
            self.census(LIB, [BIN_SERVE, BIN_SCRAPE], f"{PLANTED}\n"), 2)

    def test_only_strong_library_functions_are_counted(self):
        defined = link_census.parse_nm(LIB, types={"T"})
        self.assertEqual(len(defined), 3)
        self.assertNotIn("btpub::Swarm::finalized() const", defined)
        self.assertNotIn("btpub::kTable", defined)


if __name__ == "__main__":
    unittest.main()
