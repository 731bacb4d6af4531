//! Test helper: a KLL summary's level structure, read off its own snapshot
//! (public API only), and the sampler's invariant stated over it.

use sketch_sampled_streams::core::wire::Head;
use sketch_sampled_streams::core::Portable;
use sketch_sampled_streams::sketch::KllSketch;
use sketch_sampled_streams::xi::Reader;

/// How many items each level holds: the body's leading field is the
/// level count, then each level's items.
pub fn level_sizes(kll: &KllSketch) -> Vec<usize> {
    let bytes = kll.encode().unwrap();
    let (_, body) = Head::open(&bytes).unwrap();
    let mut r = Reader::new(body);
    let levels = r.count(1).unwrap();
    (0..levels).map(|_| r.u64s().unwrap().len()).collect()
}

/// How many of `levels` levels sample: those whose capacity formula
/// `⌈k·(2/3)^depth⌉`, depth counted from the top, is at its floor of 2.
pub fn sampling_levels(k: usize, levels: usize) -> usize {
    (0..levels)
        .filter(|&depth| (k as f64 * (2.0f64 / 3.0).powi(depth as i32)).ceil() <= 2.0)
        .count()
}

/// Total weight is `n`, sampling level `h` holds bit `h` of `n` items,
/// `stored()` counts what is there, and the summary reads back what it
/// writes.
pub fn assert_sampler_invariant(kll: &KllSketch) {
    let sizes = level_sizes(kll);
    let weight: u64 = (sizes.iter().enumerate())
        .map(|(h, &len)| (len as u64) << h)
        .sum();
    assert_eq!(weight, kll.len(), "levels {sizes:?}");
    for h in 0..sampling_levels(kll.k(), sizes.len()) {
        assert_eq!(
            sizes[h] as u64,
            (kll.len() >> h) & 1,
            "level {h} of {sizes:?}"
        );
    }
    assert_eq!(kll.stored(), sizes.iter().sum::<usize>());
    let bytes = kll.encode().unwrap();
    assert_eq!(KllSketch::decode(&bytes).unwrap().encode().unwrap(), bytes);
}
