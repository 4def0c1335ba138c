"""Layout-as-a-service, end to end: boot, submit, fetch, drain.

Boots the real ``repro serve`` daemon as a subprocess on an ephemeral
port, drives it the way a client fleet would — submit a multiplier job
over HTTP, poll to completion, download the CIF artifact, resubmit to
show the warm dedup path — then checks that ``repro <par>`` and
``repro submit <par>`` write byte-identical CIF (one pipeline serves
both), and finally sends SIGTERM and asserts the clean-shutdown
contract: in-flight work drains and the daemon exits 0.

This is also the CI end-to-end check for the service: every claim it
prints is asserted, so a broken daemon fails the lane.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE
from repro.service import JobSpec, ServiceClient


def boot():
    """Start ``repro serve`` on a fresh root and return (process, base URL)."""
    # The demo asserts absolute counters (1 execution, 2 submissions), so
    # a root left over from a previous run would fail them — and the
    # store is deliberately persistent, so clear it explicitly.
    shutil.rmtree(".repro-service-demo", ignore_errors=True)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--root", ".repro-service-demo", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    banner = process.stdout.readline().strip()
    assert banner.startswith("serving on http://"), banner
    url = banner.split()[2]
    print(f"booted: {banner}")
    return process, url


def same_bytes_locally_and_served(url):
    """``repro <par>`` and ``repro submit <par>`` write the same CIF."""
    with tempfile.TemporaryDirectory() as directory:
        root = pathlib.Path(directory)
        (root / "mult.sample").write_text(MULTIPLIER_SAMPLE)
        (root / "mult.design").write_text(DESIGN_FILE)
        parameter = root / "mult.par"
        parameter.write_text(
            f".example_file:{root / 'mult.sample'}\n"
            f".concept_file:{root / 'mult.design'}\n"
            f".output_file:{root / 'local.cif'}\n"
            ".output_cell:thewholething\n"
            + PARAMETER_FILE.split("\n", 1)[1]
        )
        sizes = ["--set", "xsize=3", "--set", "ysize=3", "--compact", "hier"]
        for argv in (
            [str(parameter), *sizes],
            ["submit", str(parameter), *sizes, "--url", url,
             "--output", str(root / "served.cif")],
        ):
            subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                check=True, capture_output=True, text=True,
            )
        local = (root / "local.cif").read_bytes()
        served = (root / "served.cif").read_bytes()
        assert local == served, "repro and repro submit wrote different CIF"
        print(f"repro and repro submit: {len(local)} identical CIF bytes")


def main():
    process, url = boot()
    try:
        client = ServiceClient(url)
        health = client.health()
        assert health["ok"] and health["workers"] == 2
        print(f"healthy: {health['workers']} workers")

        spec = JobSpec(
            kind="multiplier",
            parameters="xsize=2\nysize=2\n",
            compact="hier",
        )

        # cold: the pipeline runs in a worker process
        started = time.perf_counter()
        submitted = client.submit(spec)
        print(f"submitted job {submitted['job'][:16]}… ({submitted['state']})")
        result = client.wait(submitted["job"], timeout=300.0)
        cold = time.perf_counter() - started
        summary = result["result"]
        print(
            f"done in {cold:.2f}s: cell {summary['cell_name']!r},"
            f" {summary['instance_count']} instances"
        )

        cif = client.artifact(submitted["job"], "layout.cif")
        assert cif.startswith(b"( CIF generated by repro RSG")
        print(f"fetched layout.cif: {len(cif)} bytes")

        # warm: identical content answers from the store, no worker
        started = time.perf_counter()
        again = client.submit(spec)
        warm = time.perf_counter() - started
        assert again["state"] == "done" and again["deduplicated"]
        print(f"warm resubmit: served from the store in {warm * 1000:.1f} ms")

        stats = client.stats()
        assert stats["executions"] == 1 and stats["submissions"] == 2
        print(f"stats: dedup factor {stats['dedup_factor']:.0f}")

        same_bytes_locally_and_served(url)
    except BaseException:
        process.kill()
        # The daemon's worker processes inherit its stdout pipe, so an
        # unbounded communicate() can block until they exit; cap it.
        try:
            process.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        raise

    # the clean-shutdown contract CI asserts on
    process.send_signal(signal.SIGTERM)
    stdout, stderr = process.communicate(timeout=60.0)
    assert process.returncode == 0, stderr
    assert "clean shutdown" in stdout, stdout
    print(f"daemon: {stdout.strip().splitlines()[-1]} (exit 0)")


if __name__ == "__main__":
    main()
