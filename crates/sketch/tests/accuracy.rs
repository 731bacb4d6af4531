//! Acceptance tests for the (ε, δ) sizing helpers and the heavy-hitter
//! query: the promised guarantees must hold empirically with margin.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_sketch::{AgmsSchema, FagmsSchema};

/// A mixed workload: a few heavy keys over a long uniform tail, fed to
/// `update` key by key. Returns its exact F₂.
fn load(mut update: impl FnMut(u64, i64)) -> f64 {
    let mut f2 = 0.0;
    for k in 0..2000u64 {
        let f = if k < 5 { 500 } else { 2 };
        update(k, f);
        f2 += (f * f) as f64;
    }
    f2
}

#[test]
fn fagms_for_accuracy_meets_its_promise() {
    let (eps, delta) = (0.1, 0.05);
    let mut rng = StdRng::seed_from_u64(1);
    let runs = 60;
    let mut misses = 0;
    for _ in 0..runs {
        let schema: FagmsSchema = FagmsSchema::for_accuracy(eps, delta, &mut rng);
        let mut s = schema.sketch();
        let f2 = load(|k, f| s.update(k, f));
        if (s.self_join() - f2).abs() > eps * f2 {
            misses += 1;
        }
    }
    // δ = 5%: over 60 runs, expected ≤ 3 misses; allow generous slack but
    // catch gross sizing errors.
    assert!(misses <= 8, "{misses}/{runs} runs missed the ε-window");
}

#[test]
fn agms_for_accuracy_with_median_of_means() {
    let (eps, delta) = (0.2, 0.1);
    let mut rng = StdRng::seed_from_u64(2);
    let groups = AgmsSchema::<sss_xi::Cw4>::recommended_groups(delta);
    let runs = 40;
    let mut misses = 0;
    for _ in 0..runs {
        let schema: AgmsSchema = AgmsSchema::for_accuracy(eps, delta, &mut rng);
        let mut s = schema.sketch();
        let f2 = load(|k, f| s.update(k, f));
        if (s.self_join_median_of_means(groups) - f2).abs() > eps * f2 {
            misses += 1;
        }
    }
    assert!(misses <= 10, "{misses}/{runs} runs missed the ε-window");
}

#[test]
fn sizing_panics_on_nonsense_parameters() {
    let mut rng = StdRng::seed_from_u64(3);
    for (eps, delta) in [(0.0, 0.1), (1.5, 0.1), (0.1, 0.0), (0.1, 1.0)] {
        let eps_bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: FagmsSchema = FagmsSchema::for_accuracy(eps, delta, &mut rng);
        }));
        assert!(eps_bad.is_err(), "(ε={eps}, δ={delta}) must panic");
    }
}

#[test]
fn top_k_recovers_the_heavy_hitters() {
    let mut rng = StdRng::seed_from_u64(4);
    let schema: FagmsSchema = FagmsSchema::new(5, 2048, &mut rng);
    let mut s = schema.sketch();
    // Heavy: keys 100..105 with frequency 10_000·(5−i); tail: 10k keys ×3.
    for (rank, key) in (100u64..105).enumerate() {
        s.update(key, 10_000 * (5 - rank as i64));
    }
    for k in 1000..11_000u64 {
        s.update(k, 3);
    }
    let top = s.top_k((0..11_000u64).collect::<Vec<_>>(), 5);
    let keys: Vec<u64> = top.iter().map(|&(k, _)| k).collect();
    assert_eq!(
        keys,
        vec![100, 101, 102, 103, 104],
        "heavy hitters in rank order"
    );
    // Estimated frequencies are close to the truth.
    for (i, &(_, est)) in top.iter().enumerate() {
        let truth = 10_000.0 * (5 - i) as f64;
        assert!(
            (est - truth).abs() / truth < 0.1,
            "rank {i}: {est} vs {truth}"
        );
    }
}

#[test]
fn top_k_handles_small_candidate_sets() {
    let mut rng = StdRng::seed_from_u64(5);
    let schema: FagmsSchema = FagmsSchema::new(3, 64, &mut rng);
    let mut s = schema.sketch();
    s.update(7, 10);
    let top = s.top_k([7u64, 8], 5);
    assert_eq!(top.len(), 2, "k larger than candidates returns all");
    assert_eq!(top[0].0, 7);
    assert!(s.top_k(std::iter::empty(), 3).is_empty());
}
