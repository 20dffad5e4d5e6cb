"""Device allocation via a producer-transfer-consumer model (Sec. 3.2).

The paper's observation (from its decision-forest study): GPU offload only
pays when the compute saved exceeds the host→device transfer added.  The
allocator models each candidate placement as a producer (host prepares
batches), a transfer link, and a consumer (device computes), with the
transfer overlapped against compute in ``chunks`` pieces, and places each
operator on the device with the lowest modeled latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cost import node_flops, node_memory_requirement
from ..core.ir import LinAlgNode
from ..dlruntime.device import Device
from ..errors import ConfigError


@dataclass
class PlacementDecision:
    """Chosen device plus the per-device latency estimates that drove it."""

    node: LinAlgNode
    device: Device
    estimates: dict[str, float]


def modeled_latency(
    node: LinAlgNode,
    batch_size: int,
    device: Device,
    chunks: int = 4,
) -> float:
    """Producer-transfer-consumer latency with chunked overlap.

    The batch is moved in ``chunks`` pieces; compute on chunk *i* overlaps
    the transfer of chunk *i+1*, so the modeled latency is one chunk's
    transfer (the pipeline fill) plus the max-dominated steady state.
    """
    if chunks < 1:
        raise ConfigError("chunks must be >= 1")
    flops = node_flops(node, batch_size)
    move_bytes = node_memory_requirement(node, batch_size)
    compute = device.compute_time(flops)
    transfer = device.transfer_time(move_bytes)
    if transfer == 0.0:
        return compute
    chunk_transfer = transfer / chunks
    chunk_compute = compute / chunks
    steady = (chunks - 1) * max(chunk_transfer, chunk_compute)
    return chunk_transfer + steady + chunk_compute


class DeviceAllocator:
    """Places operators on the latency-minimising device."""

    def __init__(self, devices: list[Device], chunks: int = 4):
        if not devices:
            raise ConfigError("allocator needs at least one device")
        self.devices = list(devices)
        self.chunks = chunks

    def place(self, node: LinAlgNode, batch_size: int) -> PlacementDecision:
        """Pick the best device for one operator at one batch size."""
        estimates: dict[str, float] = {}
        feasible: list[tuple[float, Device]] = []
        required = node_memory_requirement(node, batch_size)
        for device in self.devices:
            latency = modeled_latency(node, batch_size, device, self.chunks)
            estimates[device.name] = latency
            if required <= device.memory_bytes:
                feasible.append((latency, device))
        if not feasible:
            raise ConfigError(
                f"operator {node.op.value} needs {required} bytes; no device fits"
            )
        feasible.sort(key=lambda pair: pair[0])
        return PlacementDecision(node=node, device=feasible[0][1], estimates=estimates)

    def crossover_batch(
        self,
        node: LinAlgNode,
        cpu: Device,
        gpu: Device,
        max_batch: int = 1 << 20,
    ) -> int | None:
        """Smallest batch size at which the GPU beats the CPU (binary search).

        Returns None if the GPU never wins up to ``max_batch`` — the
        regime the paper observed for small models on small data.
        """
        def gpu_wins(batch: int) -> bool:
            return modeled_latency(node, batch, gpu, self.chunks) < modeled_latency(
                node, batch, cpu, self.chunks
            )

        if not gpu_wins(max_batch):
            return None
        lo, hi = 1, max_batch
        while lo < hi:
            mid = (lo + hi) // 2
            if gpu_wins(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo
