//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **ξ family** — accuracy of the F-AGMS self-join estimate per sign
//!    family (CW2 is deliberately included to show what losing 4-wise
//!    independence costs; CW4 is the workspace default).
//! 2. **Shedding mechanism** — per-tuple coin vs geometric skip, wall
//!    clock at equal p.
//! 3. **Sketch structure** — AGMS vs F-AGMS at equal counter memory:
//!    accuracy and update throughput.
//!
//! ```text
//! cargo run --release -p sss-bench --bin ablation \
//!     [--tuples=1000000] [--domain=100000] [--reps=15] [--seed=21]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_bench::{arg, banner, mtps};
use sss_datagen::ZipfGenerator;
use sss_moments::FrequencyVector;
use sss_sampling::{BernoulliSampler, GeometricSkip};
use sss_sketch::{AgmsSchema, FagmsSchema, Sketch};
use sss_xi::{Bch3, Bch5, Cw2, Cw2Bucket, Cw4, Eh3, SignFamily, Tabulation};

fn xi_family_accuracy<S>(name: &str, stream: &[u64], truth: f64, reps: usize, seed: u64)
where
    S: SignFamily,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut err = 0.0;
    for _ in 0..reps {
        let schema = FagmsSchema::<S, Cw2Bucket>::new(1, 5000, &mut rng);
        let mut sk = schema.sketch();
        for &k in stream {
            sk.update(k, 1);
        }
        err += ((sk.self_join() - truth) / truth).abs();
    }
    println!("xi_family,{name},{:.6}", err / reps as f64);
}

fn main() {
    let tuples: usize = arg("tuples", 1_000_000);
    let domain: usize = arg("domain", 100_000);
    let reps: usize = arg("reps", 15);
    let seed: u64 = arg("seed", 21);
    banner(
        "ablation",
        "design-choice ablations (ξ family, shedding mechanism, sketch structure)",
        &[
            ("tuples", tuples.to_string()),
            ("domain", domain.to_string()),
            ("reps", reps.to_string()),
        ],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = ZipfGenerator::new(domain, 1.0).relation(tuples, &mut rng);
    let truth = FrequencyVector::from_keys(stream.iter().copied(), domain).self_join();

    // 1. ξ family accuracy (F-AGMS 1×5000 self-join, mean relative error).
    println!("section,variant,value");
    xi_family_accuracy::<Cw2>("cw2_pairwise_only", &stream, truth, reps, seed + 1);
    xi_family_accuracy::<Cw4>("cw4", &stream, truth, reps, seed + 2);
    xi_family_accuracy::<Eh3>("eh3", &stream, truth, reps, seed + 3);
    xi_family_accuracy::<Bch3>("bch3", &stream, truth, reps, seed + 6);
    xi_family_accuracy::<Bch5>("bch5", &stream, truth, reps, seed + 4);
    xi_family_accuracy::<Tabulation>("tabulation", &stream, truth, reps, seed + 5);

    // 2. Coin vs geometric skip: pure sampling cost (no sketch), p sweep.
    for p in [0.1, 0.01, 0.001] {
        let mut coin: BernoulliSampler = BernoulliSampler::new(p, &mut rng).expect("valid p");
        let mut kept = 0u64;
        let coin_mtps = mtps(stream.len(), || {
            for _ in &stream {
                kept += coin.keep() as u64;
            }
        });
        let mut skip: GeometricSkip = GeometricSkip::new(p, &mut rng).expect("valid p");
        let mut kept_skip = 0u64;
        let skip_mtps = mtps(stream.len(), || {
            let mut gap = skip.next_gap();
            for _ in &stream {
                if gap == 0 {
                    kept_skip += 1;
                    gap = skip.next_gap();
                } else {
                    gap -= 1;
                }
            }
        });
        println!("shed_coin_mtps,p={p},{coin_mtps:.2}");
        println!("shed_skip_mtps,p={p},{skip_mtps:.2}");
        std::hint::black_box((kept, kept_skip));
    }

    // 3. AGMS vs F-AGMS at equal memory (5000 counters): accuracy + speed.
    {
        let mut err_agms = 0.0;
        let mut err_fagms = 0.0;
        let acc_reps = reps.min(5); // AGMS-5000 is slow; few reps suffice
        let sub = &stream[..stream.len().min(100_000)];
        let sub_truth = FrequencyVector::from_keys(sub.iter().copied(), domain).self_join();
        for _ in 0..acc_reps {
            let agms = AgmsSchema::<Cw4>::new(5000, &mut rng);
            let mut s = agms.sketch();
            let agms_mtps = mtps(sub.len(), || {
                for &k in sub {
                    s.update(k, 1);
                }
            });
            err_agms += ((s.self_join() - sub_truth) / sub_truth).abs();

            let fagms = FagmsSchema::<Cw4, Cw2Bucket>::new(1, 5000, &mut rng);
            let mut f = fagms.sketch();
            let fagms_mtps = mtps(sub.len(), || {
                for &k in sub {
                    f.update(k, 1);
                }
            });
            err_fagms += ((f.self_join() - sub_truth) / sub_truth).abs();
            println!("structure_agms5000_mtps,,{agms_mtps:.3}");
            println!("structure_fagms5000_mtps,,{fagms_mtps:.3}");
        }
        println!("structure_agms5000_err,,{:.6}", err_agms / acc_reps as f64);
        println!(
            "structure_fagms5000_err,,{:.6}",
            err_fagms / acc_reps as f64
        );
    }
}
