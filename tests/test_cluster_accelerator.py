"""Tests for the cluster simulator, distributed linalg and the coprocessor model."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.accelerator import Coprocessor, DeviceSpec, OffloadRuntime, XEON_PHI_5110P
from repro.cluster import cluster as cluster_module
from repro.cluster import (
    BlockCyclicPartitioner,
    Cluster,
    DistributedMatrix,
    HashPartitioner,
    NetworkModel,
    RangePartitioner,
    ScaLAPACK,
    partition_rows,
)


class TestPartitioners:
    def test_hash_partitioner_covers_all_and_is_deterministic(self):
        keys = np.arange(1000)
        partitioner = HashPartitioner(4)
        assignment = partitioner.assign(keys)
        assert set(np.unique(assignment)) == {0, 1, 2, 3}
        np.testing.assert_array_equal(assignment, HashPartitioner(4).assign(keys))

    def test_hash_partitioner_roughly_balanced(self):
        counts = np.bincount(HashPartitioner(4).assign(np.arange(10_000)), minlength=4)
        assert counts.min() > 1500

    def test_range_partitioner_ordered(self):
        keys = np.arange(100)
        assignment = RangePartitioner(4).assign(keys)
        # Partition ids must be non-decreasing for sorted keys.
        assert np.all(np.diff(assignment) >= 0)
        assert assignment[0] == 0 and assignment[-1] == 3

    def test_block_cyclic_layout(self):
        partitioner = BlockCyclicPartitioner(2, block_size=3)
        assignment = partitioner.assign(np.arange(12))
        np.testing.assert_array_equal(assignment, [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1])

    def test_partition_rows_reassembles(self, rng):
        matrix = rng.random((20, 4))
        parts = partition_rows(matrix, RangePartitioner(3))
        assert sum(len(p) for p in parts) == 20
        np.testing.assert_allclose(np.vstack(parts), matrix)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            BlockCyclicPartitioner(2, block_size=0)

    def test_hash_partitioner_string_keys_stable_across_processes(self):
        """Non-numeric keys must not depend on PYTHONHASHSEED.

        The old fallback used Python's salted ``hash()``: the same keys
        landed on different nodes from one process to the next.  The
        stable vectorised hash must produce one assignment under any seed.
        """
        script = (
            "import json, numpy as np\n"
            "from repro.cluster import HashPartitioner\n"
            "keys = np.array(['alpha', 'beta', 'gamma', 'delta', '', 'alpha2'])\n"
            "print(json.dumps(HashPartitioner(4).assign(keys).tolist()))\n"
        )
        assignments = []
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH", ""),
            ]))
            output = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout
            assignments.append(json.loads(output))
        assert assignments[0] == assignments[1] == assignments[2]
        # In-process assignment agrees with the subprocess ones too.
        keys = np.array(["alpha", "beta", "gamma", "delta", "", "alpha2"])
        assert HashPartitioner(4).assign(keys).tolist() == assignments[0]

    def test_hash_partitioner_distinct_strings_spread(self):
        keys = np.array([f"patient-{i}" for i in range(1000)])
        counts = np.bincount(HashPartitioner(4).assign(keys), minlength=4)
        assert counts.min() > 150

    def test_range_partitioner_int64_keys_keep_integer_precision(self):
        """Large int64 keys must partition in integer space.

        Adjacent ids above 2**53 collapse onto one float64; the old
        quantile path put boundary keys in the wrong partition.
        """
        base = 2**53
        keys = np.array([base, base + 1, base + 2, base + 3], dtype=np.int64)
        assignment = RangePartitioner(2).assign(keys)
        np.testing.assert_array_equal(assignment, [0, 0, 1, 1])
        # And the assignment is by key order, not input order.
        shuffled = keys[::-1]
        np.testing.assert_array_equal(RangePartitioner(2).assign(shuffled), [1, 1, 0, 0])

    def test_range_partitioner_float_keys_unchanged(self):
        keys = np.linspace(0.0, 1.0, 40)
        assignment = RangePartitioner(4).assign(keys)
        assert np.all(np.diff(assignment) >= 0)
        assert assignment[0] == 0 and assignment[-1] == 3


class TestNetworkModel:
    def test_transfer_counts_real_bytes(self):
        network = NetworkModel()
        payload = np.ones(1000)
        copy, seconds = network.transfer(payload, source=0, destination=1)
        np.testing.assert_array_equal(copy, payload)
        assert network.total_bytes >= payload.nbytes
        assert seconds > network.latency_seconds

    def test_local_transfer_is_free(self):
        network = NetworkModel()
        _copy, seconds = network.transfer(np.ones(10), source=2, destination=2)
        assert seconds == 0.0
        assert network.total_bytes == 0

    def test_broadcast_and_gather(self):
        network = NetworkModel()
        copies, seconds = network.broadcast("hello", source=0, destinations=[1, 2, 3])
        assert copies == ["hello"] * 3
        assert seconds > 0
        gathered, _ = network.gather(["a", "b"], sources=[1, 2], destination=0)
        assert gathered == ["a", "b"]
        assert len(network.transfers) == 5

    def test_all_reduce_cost_scaling(self):
        network = NetworkModel()
        assert network.all_reduce_cost(1_000_000, 1) == 0.0
        two = network.all_reduce_cost(1_000_000, 2)
        four = network.all_reduce_cost(1_000_000, 4)
        assert two > 0 and four > two

    def test_reset(self):
        network = NetworkModel()
        network.transfer(np.ones(10), 0, 1)
        network.reset()
        assert network.total_bytes == 0 and network.total_seconds == 0.0

    def test_running_totals_match_the_log(self):
        network = NetworkModel()
        network.transfer(np.ones(10), 0, 1)
        network.reset()
        network.transfer(np.arange(100.0), 0, 3, label="block")
        network.transfer(np.ones(10), 2, 2)  # local: free and not logged
        network.broadcast({"genes": list(range(50))}, source=1, destinations=[0, 1, 2, 3])
        network.gather(["x" * 300, b"y" * 7, None], sources=[0, 1, 2], destination=2)
        assert len(network.transfers) == 6
        assert network.total_bytes == sum(record.n_bytes for record in network.transfers)
        # sum() of floats is compensated from Python 3.12; a running += is not.
        assert network.total_seconds == pytest.approx(
            sum(record.seconds for record in network.transfers), rel=1e-12
        )


class TestCluster:
    def test_map_partitions_and_clock(self, rng):
        cluster = Cluster(3)
        partitions = [rng.random((10, 2)) for _ in range(3)]
        result = cluster.map_partitions(partitions, lambda part, node: part.sum())
        assert len(result.outputs) == 3
        assert result.elapsed_seconds >= max(result.per_node_seconds)
        assert cluster.simulated_elapsed_seconds >= result.elapsed_seconds

    def test_partition_count_mismatch(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.map_partitions([1, 2, 3], lambda part, node: part)
        with pytest.raises(ValueError):
            cluster.run_on_nodes([lambda node: None])

    def test_scatter_gather_charge_network(self):
        cluster = Cluster(3)
        blocks = [np.ones(100) * i for i in range(3)]
        scattered = cluster.scatter(blocks, source=0)
        assert scattered.network_seconds > 0
        gathered = cluster.gather(scattered.outputs, destination=0)
        np.testing.assert_allclose(gathered.outputs[2], blocks[2])
        assert cluster.network.total_bytes > 0

    def test_single_node_has_no_network_cost(self):
        cluster = Cluster(1)
        cluster.scatter([np.ones(10)], source=0)
        assert cluster.network.total_bytes == 0

    def test_reset_clock(self):
        cluster = Cluster(2)
        cluster.scatter([np.ones(10), np.ones(10)], source=0)
        cluster.reset_clock()
        assert cluster.simulated_elapsed_seconds == 0.0
        assert cluster.network.total_bytes == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            Cluster(2, executor="mpi")

    def test_threaded_and_sequential_executors_agree(self, rng):
        partitions = [rng.random((200, 8)) for _ in range(4)]
        threaded = Cluster(4, executor="threads")
        sequential = Cluster(4, executor="sequential")
        a = threaded.map_partitions(partitions, lambda part, node: part.sum(axis=0))
        b = sequential.map_partitions(partitions, lambda part, node: part.sum(axis=0))
        for left, right in zip(a.outputs, b.outputs, strict=True):
            np.testing.assert_array_equal(left, right)
        # Both record a real wall clock and per-node compute for every node.
        assert a.wall_seconds > 0 and b.wall_seconds > 0
        assert len(a.per_node_seconds) == len(b.per_node_seconds) == 4

    def test_threaded_executor_preserves_node_order_and_timings(self, rng):
        cluster = Cluster(3, executor="threads")
        result = cluster.run_on_nodes([
            (lambda node, i=i: (i, np.arange(i + 1).sum())) for i in range(3)
        ])
        assert [output[0] for output in result.outputs] == [0, 1, 2]
        assert all(t.compute_seconds >= 0 for t in cluster.node_timings)
        assert cluster.simulated_elapsed_seconds >= result.elapsed_seconds


class _UnreadableLog(list):
    """A transfer log that fails any code iterating it."""

    def __iter__(self):
        raise AssertionError("the transfer log was iterated")


class TestFragmentDispatch:
    def test_phases_never_read_the_transfer_log(self, rng):
        blocks = [rng.random(50) for _ in range(4)]

        def network_seconds(cluster):
            return [
                cluster.scatter(blocks).network_seconds,
                cluster.run_on_nodes([lambda node: node] * 4).network_seconds,
                cluster.gather(blocks).network_seconds,
            ]

        guarded = Cluster(4)
        guarded.network.transfers = _UnreadableLog()
        assert network_seconds(guarded) == network_seconds(Cluster(4))
        assert len(guarded.network.transfers) == 6

    def test_thread_count_stays_bounded(self):
        before = threading.active_count()
        clusters = [Cluster(4) for _ in range(50)]
        for cluster in clusters:
            cluster.run_on_nodes([lambda node: node] * 4)
        assert threading.active_count() - before <= (os.cpu_count() or 1)

    def test_nested_dispatch_on_a_full_pool_finishes(self, monkeypatch):
        # Two workers, four outer fragments: queuing the inner phases
        # behind the outer ones would wait forever.
        pool = cluster_module._make_pool(2)
        monkeypatch.setattr(cluster_module, "_pool", pool)

        def nested(executor):
            def outer(node):
                inner = Cluster(4, executor=executor)
                return inner.run_on_nodes([(lambda i: node * 10 + i)] * 4).outputs

            return Cluster(4, executor=executor).run_on_nodes([outer] * 4).outputs

        results = {}
        thread = threading.Thread(
            target=lambda: results.update(threads=nested("threads")), daemon=True
        )
        try:
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert results["threads"] == nested("sequential")
        finally:
            # Cancelling the queued items also ends a deadlocked run.
            pool.shutdown(wait=False, cancel_futures=True)

    def test_failed_phase_leaves_no_fragment_running(self):
        finished = []

        def work(node):
            if node == 0:
                raise ValueError("node 0 failed")
            time.sleep(0.05)
            finished.append(node)

        with pytest.raises(ValueError, match="node 0 failed"):
            Cluster(4).run_on_nodes([work] * 4)
        at_return = list(finished)
        time.sleep(0.2)
        assert finished == at_return

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_dispatches_on_its_own_pool(self):
        # The child inherits the parent's pool object, with every worker
        # counted as idle, but none of its threads: dispatching through it
        # would hang.  The parent first fills its pool to full size.
        script = (
            "import os, signal, time\n"
            "from repro.cluster import Cluster\n"
            "n = max(os.cpu_count() or 1, 2)\n"
            "Cluster(n).run_on_nodes([lambda node: time.sleep(0.05)] * n)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    outputs = Cluster(2).run_on_nodes([lambda node: node * 10] * 2).outputs\n"
            "    os._exit(0 if outputs == [0, 10] else 1)\n"
            "deadline = time.monotonic() + 10\n"
            "while time.monotonic() < deadline:\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        print(os.waitstatus_to_exitcode(status))\n"
            "        break\n"
            "    time.sleep(0.01)\n"
            "else:\n"
            "    os.kill(pid, signal.SIGKILL)\n"
            "    os.waitpid(pid, 0)\n"
            "    print('hung')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ]))
        completed = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert completed.stdout.strip() == "0"


class TestScaLAPACK:
    @pytest.fixture(params=[1, 2, 4])
    def cluster(self, request) -> Cluster:
        return Cluster(request.param)

    def test_distributed_covariance(self, cluster, rng):
        matrix = rng.random((60, 12))
        distributed = DistributedMatrix.from_dense(cluster, matrix)
        assert distributed.shape == matrix.shape
        cov = ScaLAPACK(cluster).covariance(distributed)
        np.testing.assert_allclose(cov, np.cov(matrix, rowvar=False), atol=1e-10)

    def test_distributed_regression(self, cluster, rng):
        features = rng.random((80, 5))
        beta_true = np.arange(1.0, 6.0)
        target = features @ beta_true + 2.0 + 0.01 * rng.standard_normal(80)
        fit = ScaLAPACK(cluster).linear_regression(
            DistributedMatrix.from_dense(cluster, features),
            DistributedMatrix.from_dense(cluster, target.reshape(-1, 1)),
        )
        np.testing.assert_allclose(fit.coefficients, beta_true, atol=0.05)
        assert fit.r_squared > 0.99

    def test_distributed_matvec_and_svd(self, cluster, rng):
        matrix = rng.random((50, 20))
        distributed = DistributedMatrix.from_dense(cluster, matrix)
        scalapack = ScaLAPACK(cluster)
        x = rng.random(20)
        np.testing.assert_allclose(scalapack.matvec(distributed, x), matrix @ x, atol=1e-10)
        y = rng.random(50)
        np.testing.assert_allclose(
            scalapack.matvec(distributed, y, transpose=True), matrix.T @ y, atol=1e-10
        )
        result = scalapack.lanczos_svd(distributed, k=4, seed=0)
        np.testing.assert_allclose(
            result.singular_values, np.linalg.svd(matrix, compute_uv=False)[:4], atol=1e-6
        )

    def test_distributed_gemm_and_collect(self, cluster, rng):
        matrix = rng.random((30, 8))
        right = rng.random((8, 3))
        distributed = DistributedMatrix.from_dense(cluster, matrix)
        product = ScaLAPACK(cluster).gemm(distributed, right)
        np.testing.assert_allclose(product.collect(), matrix @ right, atol=1e-10)

    def test_multi_node_charges_network(self, rng):
        cluster = Cluster(4)
        matrix = rng.random((40, 10))
        distributed = DistributedMatrix.from_dense(cluster, matrix)
        ScaLAPACK(cluster).covariance(distributed)
        assert cluster.network.total_bytes > 0
        assert cluster.simulated_elapsed_seconds > 0

    @pytest.mark.xfail(strict=True, reason=(
        "matvec broadcasts outside any phase: the transfer is logged but "
        "never added to the simulated clock"))
    def test_matvec_broadcast_is_charged_to_the_clock(self, rng):
        cluster = Cluster(4)
        distributed = DistributedMatrix.from_dense(cluster, rng.random((8, 4)))
        logged_before = len(cluster.network.transfers)
        clock_before = cluster.simulated_elapsed_seconds
        ScaLAPACK(cluster).matvec(distributed, rng.random(4))
        broadcast_seconds = sum(
            record.seconds for record in cluster.network.transfers[logged_before:]
        )
        assert broadcast_seconds > 0
        assert cluster.simulated_elapsed_seconds - clock_before >= broadcast_seconds

    def test_regression_validation(self, rng):
        cluster = Cluster(2)
        features = DistributedMatrix.from_dense(cluster, rng.random((10, 2)))
        bad_target = DistributedMatrix.from_dense(cluster, rng.random((10, 2)))
        with pytest.raises(ValueError):
            ScaLAPACK(cluster).linear_regression(features, bad_target)


class TestCoprocessor:
    def test_offload_timing_breakdown(self, rng):
        device = Coprocessor()
        matrix = rng.random((200, 50))
        result = device.offload(lambda m: np.cov(m, rowvar=False), matrix,
                                offloadable_fraction=0.9)
        assert result.device_kernel_seconds < result.host_kernel_seconds
        assert result.transfer_seconds > 0
        assert result.bytes_transferred >= matrix.nbytes
        assert result.fits_in_device_memory
        assert device.total_device_seconds == pytest.approx(result.device_total_seconds)

    def test_small_problems_dominated_by_transfer(self, rng):
        device = Coprocessor()
        tiny = rng.random((5, 5))
        result = device.offload(lambda m: m.sum(), tiny)
        # Transfer latency swamps the microsecond kernel: no speedup.
        assert result.speedup < 1.0

    def test_memory_oversubscription_penalty(self, rng):
        spec = DeviceSpec(
            name="tiny-device", memory_bytes=1_000,
            transfer_bandwidth_bytes_per_second=1e9,
            transfer_latency_seconds=0.0, compute_speedup=4.0,
            oversubscription_penalty=3.0,
        )
        device = Coprocessor(spec=spec)
        big = rng.random((100, 100))
        result = device.offload(lambda m: m @ m.T, big, offloadable_fraction=1.0)
        assert not result.fits_in_device_memory
        assert result.device_kernel_seconds == pytest.approx(
            result.host_kernel_seconds / 4.0 * 3.0, rel=0.2
        )

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            Coprocessor().offload(lambda m: m, rng.random(4), offloadable_fraction=1.5)

    def test_paper_device_spec(self):
        assert XEON_PHI_5110P.memory_bytes == 8 * 1024**3
        assert XEON_PHI_5110P.compute_speedup > 1.0

    def test_runtime_policy(self, rng):
        runtime = OffloadRuntime()
        assert not runtime.should_offload("regression")
        assert runtime.should_offload("covariance")
        host_result = runtime.run("regression", lambda m: m.mean(), rng.random(100))
        assert host_result.transfer_seconds == 0.0
        assert host_result.device_total_seconds == host_result.host_kernel_seconds
        offloaded = runtime.run("covariance", lambda m: np.cov(m, rowvar=False), rng.random((50, 10)))
        assert offloaded.transfer_seconds > 0
        assert len(runtime.device.offloads) == 2
