"""Simulated data-parallel training on the DGX-1 across workloads.

Reproduces the paper's Fig.-13 style comparison end to end through the
public API: for each network and batch size, runs the steady-state
training iteration per strategy and prints throughput plus normalized
performance at both bandwidth settings.

Run:  python examples/train_dgx1.py
"""

from repro.core.config import Bandwidth, CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.dnn.networks import NETWORKS


def main() -> None:
    strategies = list(Strategy)
    for bandwidth in (Bandwidth.LOW, Bandwidth.HIGH):
        print(f"=== {bandwidth.value} bandwidth ===")
        header = (f"{'network':<10} {'batch':>5} "
                  + "".join(f"{s.value:>9}" for s in strategies)
                  + f" {'CC imgs/s':>10}")
        print(header)
        config = CCubeConfig().scaled(bandwidth)
        for net_name, builder in NETWORKS.items():
            network = builder()
            for batch in (16, 64, 256):
                pipeline = IterationPipeline(network, batch, config)
                cells = []
                cc_throughput = 0.0
                for strategy in strategies:
                    result = pipeline.run(strategy)
                    cells.append(f"{result.normalized_performance:>9.3f}")
                    if strategy is Strategy.CCUBE:
                        cc_throughput = batch / result.iteration_time
                print(f"{net_name:<10} {batch:>5} " + "".join(cells)
                      + f" {cc_throughput:>10.1f}")
        print()


if __name__ == "__main__":
    main()
