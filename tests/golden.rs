//! Golden bytes: the `encode()` output of every `Portable` kind, fed one
//! fixed Zipf stream seven ways, pinned as FNV-1a hashes.
//!
//! Each kind is filled per key, in 512-key batches, through
//! `ShardedRuntime` at 1 and 2 shards under both partitions, and by
//! `merge_encoded` of its two halves. The slim kinds are pinned through
//! `slim()` of each fed parent. `Sampled<MultiSummary>` has no `encode()`
//! yet, so at p ∈ {0.1, 0.01} its `seen`, `kept` and the bits of its F₂
//! estimate are pinned instead.
//!
//! A change that moves any of these hashes changed a byte a snapshot, a
//! slim projection or an answer carries. Such a change re-pins the table in
//! the same diff and says why in CHANGES.md (CONTRIBUTING.md); any other
//! change leaves the table as it is. On a mismatch the test prints the
//! whole table it computed, in the layout below.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{
    MultiSpec, MultiSummary, Portable, Sampled, SlimQuery, Summary,
};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::sketch::{AgmsSchema, FagmsSchema, HyperLogLog, KllSketch, MisraGries};
use sketch_sampled_streams::stream::{Partition, RuntimeConfig, ShardedRuntime};

const TUPLES: usize = 1 << 16;
const BATCH: usize = 512;

/// The one stream every case is fed: Zipf 1.1 over 2^14 keys.
fn stream() -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0x601d);
    ZipfGenerator::new(1 << 14, 1.1).relation(TUPLES, &mut rng)
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hash<S: Portable>(s: &S) -> u64 {
    fnv1a(s.encode().unwrap())
}

/// The seven fills, in the column order of the golden table.
const FILLS: [&str; 7] = [
    "per key",
    "batches",
    "rr x1",
    "rr x2",
    "hash x1",
    "hash x2",
    "merged halves",
];

fn batched<S: Summary>(empty: &S, keys: &[u64]) -> S {
    let mut s = empty.clone();
    keys.chunks(BATCH).for_each(|c| s.update_batch(c));
    s
}

fn through_runtime<S: Summary>(empty: &S, keys: &[u64], shards: usize, partition: Partition) -> S {
    let config = RuntimeConfig {
        shards,
        queue_depth: 4,
        partition,
    };
    let mut rt = ShardedRuntime::new(config, empty).unwrap();
    keys.chunks(BATCH).for_each(|c| rt.push(c).unwrap());
    rt.into_merged().unwrap()
}

/// `empty` fed `keys` each of the seven ways, in [`FILLS`] order.
fn fills<S: Summary + Portable>(empty: &S, keys: &[u64]) -> Vec<S> {
    let mut per_key = empty.clone();
    keys.iter().for_each(|&k| per_key.update(k, 1));
    let (a, b) = keys.split_at(keys.len() / 2);
    let mut merged = batched(empty, a);
    merged
        .merge_encoded(&batched(empty, b).encode().unwrap())
        .unwrap();
    vec![
        per_key,
        batched(empty, keys),
        through_runtime(empty, keys, 1, Partition::RoundRobin),
        through_runtime(empty, keys, 2, Partition::RoundRobin),
        through_runtime(empty, keys, 1, Partition::Hash),
        through_runtime(empty, keys, 2, Partition::Hash),
        merged,
    ]
}

/// A kind and its hashes, one per fill.
type Row = (&'static str, Vec<u64>);

fn row<S: Portable>(kind: &'static str, fed: &[S]) -> Row {
    (kind, fed.iter().map(hash).collect())
}

/// The kind's row, `empty` fed each of the seven ways.
fn fat_row<S: Summary + Portable>(kind: &'static str, empty: S, keys: &[u64]) -> Row {
    row(kind, &fills(&empty, keys))
}

/// The fat kind's row, then its slim projection's.
fn with_slim<S>(kind: &'static str, slim: &'static str, empty: S, keys: &[u64]) -> [Row; 2]
where
    S: SlimQuery + Portable,
    S::Slim: Portable,
{
    let fed = fills(&empty, keys);
    let projected: Vec<S::Slim> = fed.iter().map(S::slim).collect();
    [row(kind, &fed), row(slim, &projected)]
}

#[test]
fn every_portable_kind_keeps_its_golden_bytes() {
    let keys = stream();
    let mut rng = StdRng::seed_from_u64(36);
    let agms: AgmsSchema = AgmsSchema::new(4, &mut rng);
    let fagms: FagmsSchema = FagmsSchema::new(2, 512, &mut rng);
    let join = JoinSchema::fagms(2, 256, &mut rng);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 256, &mut rng), &mut rng);

    let mut got: Vec<Row> = vec![
        fat_row("join", JoinSchema::Agms(agms).sketch(), &keys),
        fat_row("join", JoinSchema::Fagms(fagms).sketch(), &keys),
    ];
    got.extend(with_slim("join", "slim-join", join.sketch(), &keys));
    got.push(fat_row("misra-gries", MisraGries::new(64).unwrap(), &keys));
    got.push(fat_row(
        "hll",
        HyperLogLog::with_seed(10, 7).unwrap(),
        &keys,
    ));
    got.push(fat_row("kll", KllSketch::with_seed(64, 9).unwrap(), &keys));
    got.extend(with_slim(
        "multi",
        "slim-multi",
        spec.summary().unwrap(),
        &keys,
    ));

    let want: Vec<Row> = GOLDEN_KINDS
        .iter()
        .map(|(kind, hashes)| (*kind, hashes.to_vec()))
        .collect();
    assert!(
        got == want,
        "golden bytes moved; computed table ({FILLS:?} per row):\n{got:#x?}"
    );
}

/// `seen`, `kept` and the F₂ estimate's bits of a `Sampled<MultiSummary>`
/// fed in 512-key batches, then through two hash-partitioned shards.
#[test]
fn sampled_multi_summaries_keep_their_golden_counts_and_estimates() {
    let keys = stream();
    let got: Vec<[u64; 3]> = [0.1, 0.01]
        .into_iter()
        .flat_map(|p| {
            let mut rng = StdRng::seed_from_u64(37);
            let spec = MultiSpec::new(JoinSchema::fagms(2, 256, &mut rng), &mut rng);
            let empty: Sampled<MultiSummary> =
                Sampled::new(spec.summary().unwrap(), p, &mut rng).unwrap();
            [
                batched(&empty, &keys),
                through_runtime(&empty, &keys, 2, Partition::Hash),
            ]
        })
        .map(|s| [s.seen(), s.kept(), s.self_join_estimate().value.to_bits()])
        .collect();
    assert_eq!(got, GOLDEN_SAMPLED, "{got:#x?}");
}

/// One row per fed summary (slim kinds after the parent they project), one
/// hash per fill in [`FILLS`] order. The `join` kind has three: an AGMS
/// body, an F-AGMS body, and the F-AGMS sketch `slim-join` projects.
#[rustfmt::skip]
const GOLDEN_KINDS: &[(&str, [u64; 7])] = &[
    ("join",        [0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75, 0xcfc9c0bb2138bb75]),
    ("join",        [0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96, 0x4d7f7d361a3f8b96]),
    ("join",        [0x5f8695a258c9da79, 0x5f8695a258c9da79, 0x5f8695a258c9da79, 0x5f8695a258c9da79, 0x5f8695a258c9da79, 0x5f8695a258c9da79, 0x5f8695a258c9da79]),
    ("slim-join",   [0xa266e01cfab7fe87, 0xa266e01cfab7fe87, 0xa266e01cfab7fe87, 0xa266e01cfab7fe87, 0xa266e01cfab7fe87, 0xa266e01cfab7fe87, 0xa266e01cfab7fe87]),
    ("misra-gries", [0x21fdb8f0938d9726, 0x21fdb8f0938d9726, 0x21fdb8f0938d9726, 0x22e9e562d95bae33, 0x21fdb8f0938d9726, 0xcb66aedcce9c3bb3, 0x8e7d4f26cbb9057f]),
    ("hll",         [0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32, 0x9568ed4f1ede0b32]),
    ("kll",         [0xa53b817b123c9d15, 0xa53b817b123c9d15, 0x37f023eb7f8d8a1a, 0x99284f1ce8be96a1, 0x37f023eb7f8d8a1a, 0xf6f2f0e847745452, 0x1b7256c70014cd2d]),
    ("multi",       [0x2999246447053b3f, 0x2999246447053b3f, 0xce485d88a93c9895, 0xbc2da9e50c71bd6d, 0xce485d88a93c9895, 0x89648dc70b591008, 0x8172f61eee317479]),
    ("slim-multi",  [0x4045b5f2385c3f18, 0x4045b5f2385c3f18, 0xd23db888e5b9726e, 0xd34fa7a4d9db90d4, 0xd23db888e5b9726e, 0x3cfdf6e1385c6af7, 0x292a56c9a046f7c9]),
];

/// `[seen, kept, F₂ bits]` at p = 0.1 (batches, hash x2), then p = 0.01.
const GOLDEN_SAMPLED: &[[u64; 3]] = &[
    [0x10000, 0x19e7, 0x41a1_6a91_d3ff_ffff],
    [0x10000, 0x19ac, 0x41a0_31dc_c7ff_ffff],
    [0x10000, 0x27c, 0x41a1_a10c_a000_0000],
    [0x10000, 0x2a0, 0x41a0_f817_8000_0000],
];
