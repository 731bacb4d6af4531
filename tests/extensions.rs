//! Integration test for the engineering around the paper's estimators:
//! the one-pass composite behind the sharded runtime, exercised through
//! the public facade exactly as the README shows it.

/// The README's "One pass, every query" snippet, as written, so it cannot
/// drift from the API: a `MultiSummary` prototype behind the runtime
/// answers F₂, F₀, quantiles and top-k from one merge.
#[test]
fn readme_one_pass_engine_answers_every_family() -> Result<(), sketch_sampled_streams::Error> {
    // The stream the snippet consumes: 2000 keys × 20 and one heavy key.
    let mut keys: Vec<u64> = (0..40_000u64).map(|i| i % 2_000).collect();
    keys.extend(std::iter::repeat_n(7, 8_000));
    let batches = keys.chunks(4_096);

    // ---- README.md, verbatim ----
    use rand::SeedableRng;
    use sketch_sampled_streams::core::sketch::JoinSchema;
    use sketch_sampled_streams::core::{
        DistinctQuery, JoinQuery, MultiSpec, QuantileQuery, TopKQuery,
    };
    use sketch_sampled_streams::stream::{RuntimeConfig, ShardedRuntime};

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 2048, &mut rng), &mut rng);
    let prototype = spec.summary()?; // join sketch + Misra–Gries + HLL + KLL
    let config = RuntimeConfig {
        shards: 2,
        ..Default::default()
    };
    let mut runtime = ShardedRuntime::new(config, &prototype)?;
    for batch in batches {
        runtime.push(batch)?; // blocks while a shard's ring is full
    }
    let all = runtime.merged()?; // one merge answers every family, lent as an `Arc`
    let f2 = all.self_join_estimate(); // F₂ with error bars
    let d = all.distinct_estimate(); // F₀
    let (median, (lo, hi)) = all.quantile_with_bounds(0.5)?; // value and rank envelope
    let top = all.top_k_estimates(10); // Misra–Gries picks the keys, the join sketch prices them

    // ---- end of the README snippet ----

    let truth = 1_999.0 * 400.0 + 8_020.0f64.powi(2);
    assert!((f2.value - truth).abs() / truth < 0.1, "f2 {}", f2.value);
    assert!((d.value - 2_000.0).abs() / 2_000.0 < 0.05, "d {}", d.value);
    // Rank 24 000 of 48 000: keys 0..=7 hold 8 160, so ≈ key 800.
    assert!((median - 800.0).abs() < 100.0, "median {median}");
    assert!(lo <= median && median <= hi);
    assert_eq!(top.first().map(|&(key, _)| key), Some(7));
    Ok(())
}
