"""Define a custom workload layer by layer and study it under C-Cube.

Shows the full user workflow for a model that is not built in:

1. describe the network as a list of :class:`LayerSpec`,
2. autotune the strategy for it and size its chunks with Eq. 4,
3. render the chained iteration timeline (the paper's Fig. 8, computed).

Run:  python examples/custom_workload.py
"""

from repro.collectives.chunking import optimal_chunk_count
from repro.core.autotune import choose_strategy
from repro.core.config import CCubeConfig, Strategy
from repro.core.pipeline import IterationPipeline
from repro.core.timeline import render_iteration_timeline
from repro.dnn.layers import LayerKind, LayerSpec, NetworkModel

# A transformer-encoder-ish profile: uniform blocks, params and compute
# spread evenly — neither the CNN Case-1 shape nor its pathologies.
NETWORK = NetworkModel(
    name="tiny-transformer",
    layers=(
        LayerSpec("embed", params=12_000_000, fwd_flops=5e8,
                  kind=LayerKind.EMBEDDING),
        *(
            LayerSpec(f"block{i + 1}", params=7_000_000, fwd_flops=4.2e9,
                      kind=LayerKind.FC)
            for i in range(12)
        ),
        LayerSpec("lm_head", params=12_000_000, fwd_flops=5e8,
                  kind=LayerKind.FC),
    ),
)


def main() -> None:
    network = NETWORK
    print(f"{network.name}: {len(network)} layers, "
          f"{network.total_params / 1e6:.1f}M params, "
          f"{network.total_bytes / 2**20:.0f} MiB gradients")

    config = CCubeConfig()
    batch = 32
    choice = choose_strategy(network, batch, config=config)
    print(f"\nautotuned strategy: {choice.best.value} "
          f"({choice.speedup_over_baseline:.2f}x over baseline tree)")
    for strategy, result in sorted(
        choice.results.items(), key=lambda kv: kv[1].iteration_time
    ):
        print(f"  {strategy.value:<3} normalized="
              f"{result.normalized_performance:.3f}")

    chunks = optimal_chunk_count(
        config.nnodes, network.total_bytes / 2.0, alpha=config.alpha,
        beta=config.beta, max_chunks=config.max_chunks,
    )
    print(f"\nchunk count: Eq.4 says K={chunks} per tree")

    pipeline = IterationPipeline(network=network, batch=batch, config=config)
    comm = pipeline.comm_outcome(Strategy.CCUBE)
    result = pipeline.run(Strategy.CCUBE, comm=comm)
    print("\nchained iteration timeline (C-Cube):")
    print(render_iteration_timeline(
        result, comm, layer_names=[l.name for l in network.layers]
    ))


if __name__ == "__main__":
    main()
