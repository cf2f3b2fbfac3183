"""Continuous-batching demo: many requests through one SpecEE engine.

Hands a closed batch of mixed-length requests (all arriving at t=0) to the
serving engine, watches it join/retire sequences over a deliberately small
paged-KV pool, and verifies the serving outputs are token-identical to
unbatched decoding — the invariant the serving test suite enforces.

Run:  PYTHONPATH=src python examples/continuous_batching.py
"""

from repro import Request, build_rig


def main() -> None:
    rig = build_rig("llama2-7b", train_prompts=6, train_tokens=30,
                    predictor_hidden=128, epochs=10)
    # A small pool (32 blocks of 8 tokens) under reserve admission forces
    # requests to wait in queue until retiring sequences free their blocks.
    serving = rig.async_serving_engine(
        batch_capacity=4, kv_blocks=32, block_size=8, admission="reserve",
        chunk_prefill_tokens=None)
    requests = [Request(i, [i + 2, i + 5, (3 * i) % 100 + 1], 16 + 8 * (i % 4))
                for i in range(10)]
    report = serving.run(requests)

    print("continuous batching over a 32-block paged KV pool:")
    print(f"  {len(report.results)} requests, {report.total_tokens} tokens, "
          f"{report.n_steps} scheduler ticks")
    print(f"  avg batch occupancy {report.avg_batch_occupancy:.2f} of 4, "
          f"peak KV blocks {report.peak_kv_blocks} of 32")
    print(f"  mean latency {report.mean_latency_s:.3f} s, "
          f"p95 latency {report.p95_latency_s():.3f} s (modelled clock)")
    print(f"  modelled throughput {report.sequential_tps:.0f} -> "
          f"{report.throughput_tps:.0f} tokens/s ({report.speedup:.2f}x)")

    sequential = rig.specee_engine()
    identical = all(
        sequential.generate(r.prompt, r.max_new_tokens).tokens
        == report.results[r.request_id].tokens
        for r in requests
    )
    print(f"  token-identical to unbatched decoding: {identical}")


if __name__ == "__main__":
    main()
