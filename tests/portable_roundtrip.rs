//! Wire round-trip properties of the `Portable` surface: for every
//! summary, shipping a snapshot through `encode` → `decode` →
//! `merge_encoded` is **bit-identical** to merging the live values in
//! memory — the property the multi-process aggregation path
//! (`sss save` | `sss merge-snapshots`) rests on. Plus the typed failure modes: mismatched configuration
//! fingerprints refuse to merge, foreign kinds and older formats refuse to
//! decode, a head that names another configuration than its body refuses
//! for every kind, a KLL, Misra–Gries or HyperLogLog body that no summary
//! could have written refuses to decode while every body that does decode
//! is safe to keep using, and corrupted payloads of every kind either
//! refuse or decode to a value that answers every query (a slim form,
//! which answers none, re-encodes), without allocating out of proportion
//! to their size.
//!
//! Hostile bodies are forged on the codec's own `Writer`, field by field,
//! in the order the summaries write them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::wire::{self, Head};
use sketch_sampled_streams::core::{
    DistinctQuery, Error, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery, SlimJoin,
    SlimMultiSummary, SlimQuery, Summary, TopKQuery,
};
use sketch_sampled_streams::sketch::{AgmsSchema, FagmsSchema, HyperLogLog, KllSketch, MisraGries};
use sketch_sampled_streams::xi::{Codec, Reader, Writer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

#[path = "support/kll_levels.rs"]
mod kll_levels;

fn stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..5_000u64, 0..300)
}

/// The round-trip harness: build two summaries from `seed_a`/`seed_b`
/// streams, merge once in memory and once through the wire (`a` is
/// itself round-tripped first, `b` arrives as bytes), and require the
/// two results to re-encode to the *same bytes* — state equality, which
/// implies every query answer is bit-identical.
fn assert_wire_merge_matches_memory<S, F>(make: F, a: &[u64], b: &[u64])
where
    S: Summary + Portable,
    F: Fn() -> S,
{
    let mut sa = make();
    sa.update_batch(a);
    let mut sb = make();
    sb.update_batch(b);

    let mut in_memory = sa.clone();
    in_memory.merge_from(&sb).unwrap();

    let mut through_wire = S::decode(&sa.encode().unwrap()).unwrap();
    through_wire.merge_encoded(&sb.encode().unwrap()).unwrap();

    assert_eq!(
        in_memory.encode().unwrap(),
        through_wire.encode().unwrap(),
        "wire merge diverged from in-memory merge for {}",
        S::KIND
    );
}

proptest! {
    /// The F-AGMS and AGMS join sketches: linear counters, so the merge
    /// is addition and the round-trip must preserve every counter bit.
    #[test]
    fn join_sketch_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(401);
        let fagms = JoinSchema::fagms(3, 128, &mut rng);
        assert_wire_merge_matches_memory(|| fagms.sketch(), &a, &b);
        let agms = JoinSchema::agms(64, &mut rng);
        assert_wire_merge_matches_memory(|| agms.sketch(), &a, &b);
    }

    /// Misra–Gries: the deterministic decrement merge must commute with
    /// the wire exactly, candidate set and counts included.
    #[test]
    fn misra_gries_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| MisraGries::new(16).unwrap(), &a, &b);
    }

    /// HyperLogLog: register-wise max, bit-exact through the wire.
    #[test]
    fn hll_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| HyperLogLog::with_seed(10, 0xBEEF).unwrap(), &a, &b);
    }

    /// KLL: the compactor coin is *carried state* (a seeded SplitMix64
    /// inside the summary) and so is the sampler's seed, so as long as
    /// decode restores them, the lossy merge compaction makes identical
    /// coin flips on both paths.
    #[test]
    fn kll_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        assert_wire_merge_matches_memory(|| KllSketch::with_seed(64, 0xC0FFEE).unwrap(), &a, &b);
    }

    /// The composite `MultiSummary`: all four constituent summaries must
    /// round-trip and merge bit-identically *together*.
    #[test]
    fn multi_summary_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(403);
        let spec = MultiSpec::new(JoinSchema::fagms(3, 128, &mut rng), &mut rng);
        assert_wire_merge_matches_memory(|| spec.summary().unwrap(), &a, &b);
    }
}

/// Empty summaries round-trip too: an empty snapshot is a valid merge
/// identity, not a corner case — `sss merge-snapshots` may well receive
/// one from a process that saw no tuples.
#[test]
fn empty_summaries_round_trip_and_merge_as_identity() {
    let mut rng = StdRng::seed_from_u64(404);
    let schema = JoinSchema::fagms(3, 128, &mut rng);

    let empty = schema.sketch();
    let decoded = JoinSketch::decode(&empty.encode().unwrap()).unwrap();
    assert_eq!(
        decoded.self_join_estimate().value.to_bits(),
        empty.self_join_estimate().value.to_bits()
    );

    // empty ⊔ loaded == loaded, through the wire.
    let mut loaded = schema.sketch();
    loaded.update_batch(&[1, 2, 3, 3, 3]);
    let mut merged = JoinSketch::decode(&empty.encode().unwrap()).unwrap();
    merged.merge_encoded(&loaded.encode().unwrap()).unwrap();
    assert_eq!(
        merged.encode().unwrap(),
        loaded.encode().unwrap(),
        "merging into the empty identity must reproduce the loaded state"
    );
}

/// A single update survives the round-trip for every query family.
#[test]
fn single_update_round_trips_every_family() {
    let mut rng = StdRng::seed_from_u64(405);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 128, &mut rng), &mut rng);
    let mut multi = spec.summary().unwrap();
    multi.update(42, 1);
    let back = MultiSummary::decode(&multi.encode().unwrap()).unwrap();
    assert_eq!(back.self_join_estimate(), multi.self_join_estimate());
    assert_eq!(back.distinct_estimate(), multi.distinct_estimate());
    assert_eq!(back.frequency_estimate(42), multi.frequency_estimate(42));
    assert_eq!(
        back.quantile_with_bounds(0.5).unwrap(),
        multi.quantile_with_bounds(0.5).unwrap()
    );
}

/// Mismatched configurations refuse to merge with the *typed* error —
/// the fingerprint check happens on the payload head, before any body
/// decode work.
#[test]
fn mismatched_fingerprints_refuse_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(406);
    let schema_a = JoinSchema::fagms(3, 128, &mut rng);
    let schema_b = JoinSchema::fagms(3, 256, &mut rng); // different width
    let mut a = schema_a.sketch();
    a.update_batch(&[1, 2, 3]);
    let b = schema_b.sketch();

    let err = a.merge_encoded(&b.encode().unwrap()).unwrap_err();
    assert!(
        matches!(err, Error::FingerprintMismatch { expected, found }
            if expected != found),
        "want FingerprintMismatch, got {err:?}"
    );

    // A foreign *kind* fails even earlier, at decode.
    let hll = HyperLogLog::with_seed(10, 1).unwrap();
    let err = JoinSketch::decode(&hll.encode().unwrap()).unwrap_err();
    assert!(
        matches!(err, Error::WireMismatch { .. }),
        "want WireMismatch, got {err:?}"
    );

    // And the head really is peekable without a body decode.
    let head = wire::peek(&a.encode().unwrap()).unwrap();
    assert_eq!(head.kind, JoinSketch::KIND);
    assert_eq!(head.format, JoinSketch::FORMAT);
    assert_eq!(head.fingerprint, Portable::fingerprint(&a));
}

/// A value's layout, without a head.
fn bytes_of<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// `body` behind a head naming `kind`, `format` and `fingerprint`.
fn payload(kind: &str, format: u32, fingerprint: u64, body: &[u8]) -> Vec<u8> {
    Head {
        kind: kind.to_string(),
        format,
        fingerprint,
    }
    .seal(body)
}

/// An honest `multi` payload whose part `at` (0 join, 1 heavy hitters, 2
/// distinct, 3 quantiles) is replaced by `forged`.
fn multi_payload(honest: &MultiSummary, at: usize, forged: &[u8]) -> Vec<u8> {
    let mut parts = [
        bytes_of(honest.join()),
        bytes_of(honest.heavy()),
        bytes_of(honest.hll()),
        bytes_of(honest.kll()),
    ];
    parts[at] = forged.to_vec();
    let fingerprint = Portable::fingerprint(honest);
    payload(
        MultiSummary::KIND,
        MultiSummary::FORMAT,
        fingerprint,
        &parts.concat(),
    )
}

/// A KLL body, every field the forger's to choose: the level count and
/// the levels, `k`, the weight `n`, the coin and the sampler seed.
fn kll_body(levels: &[Vec<u64>], k: u64, n: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(levels.len());
    levels.iter().for_each(|level| w.u64s(level));
    w.u64(k);
    w.u64(n);
    w.u64(7);
    w.u64(11);
    w.into_bytes()
}

/// The fingerprint a KLL summary of accuracy `k` has (below the minimum,
/// the minimum's: such a body is refused before it is fingerprinted).
fn kll_fingerprint(k: u64) -> u64 {
    let k = usize::try_from(k.max(8)).unwrap();
    KllSketch::with_seed(k, 0).unwrap().fingerprint()
}

/// `body` in a `kll` payload of the given format.
fn kll_payload_v(format: u32, k: u64, body: &[u8]) -> Vec<u8> {
    payload("kll", format, kll_fingerprint(k), body)
}

/// `body` in a `kll` payload.
fn kll_payload(k: u64, body: &[u8]) -> Vec<u8> {
    kll_payload_v(KllSketch::FORMAT, k, body)
}

/// An honest `multi` summary of accuracy parameter `k` (the head's
/// fingerprint covers it), to carry a forged quantile part.
fn honest_multi_kll(k: u64) -> MultiSummary {
    let mut rng = StdRng::seed_from_u64(407);
    let k = usize::try_from(k.max(8)).unwrap();
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng).quantile_k(k);
    spec.summary().unwrap()
}

/// `body` where an honest `multi` payload of accuracy `k` carries its
/// quantile part.
fn multi_payload_kll(k: u64, body: &[u8]) -> Vec<u8> {
    multi_payload(&honest_multi_kll(k), 3, body)
}

/// The forgers write what the encoder writes: an honest summary's parts
/// reassembled by [`multi_payload`] are its own payload, and [`mg_body`]
/// of a summary's fields is its body.
#[test]
fn forged_payloads_are_laid_out_as_honest_ones() {
    let mut honest = honest_multi(411);
    honest.update_batch(&(0..3000u64).map(|i| i % 2).collect::<Vec<_>>());
    let own = bytes_of(honest.kll());
    assert_eq!(multi_payload(&honest, 3, &own), honest.encode().unwrap());

    let mg = honest.heavy();
    let mut keys = mg.candidates();
    keys.sort_unstable();
    let counts: Vec<u64> = keys.iter().map(|&k| mg.raw_estimate(k) as u64).collect();
    assert_eq!(keys.len(), mg.held(), "every held counter is a candidate");
    let body = mg_body(2, mg.error_bound(), mg.items_offered(), &keys, &counts);
    assert_eq!(body, bytes_of(mg));
}

/// Every shape the KLL decode refuses comes back as the typed wire error,
/// from the summary's own payload and from inside a composite's.
#[test]
fn hostile_kll_bodies_refuse_with_typed_errors() {
    let empty_levels = |count: usize| vec![Vec::<u64>::new(); count];
    let mut heavier_than_a_u64 = empty_levels(63);
    heavier_than_a_u64.push(vec![1, 2]);
    let mut no_seed = kll_body(&[vec![1, 2]], 8, 2);
    no_seed.pop(); // the seed, 11, is one byte
    let refused = [
        ("no levels", kll_body(&[], 8, 0)),
        ("k below the minimum", kll_body(&[vec![1, 2]], 7, 2)),
        ("more than 64 levels", kll_body(&empty_levels(65), 8, 0)),
        (
            "weight above the levels'",
            kll_body(&[vec![1, 2], vec![3]], 8, 5),
        ),
        (
            "weight below the levels'",
            kll_body(&[vec![1, 2], vec![3]], 8, 3),
        ),
        (
            "levels heavier than a u64",
            kll_body(&heavier_than_a_u64, 8, 0),
        ),
        ("no sampler seed", no_seed),
    ];
    for (what, body) in &refused {
        let err = KllSketch::decode(&kll_payload(8, body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_payload_kll(8, body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }

    // Older formats (2 was JSON, 1 had no sampler seed) are refused by
    // their head — whether the body is one this format accepts or nothing
    // a KLL ever wrote.
    assert_eq!(KllSketch::FORMAT, 3);
    for older in [2, 1] {
        for body in [kll_body(&[vec![1, 2]], 8, 2), vec![0xff]] {
            let err = KllSketch::decode(&kll_payload_v(older, 8, &body)).unwrap_err();
            assert!(
                matches!(&err, Error::WireMismatch { found, .. } if *found == format!("kll v{older}")),
                "got {err:?}"
            );
        }
    }

    // One item at level 63 weighs 2⁶³: a body the decoder rightly accepts,
    // and two of them are more than a `u64` counts. The merge refuses
    // before it touches the receiver.
    let mut top_heavy = empty_levels(63);
    top_heavy.push(vec![1]);
    let top_heavy = kll_payload(8, &kll_body(&top_heavy, 8, 1 << 63));
    let mut kll = KllSketch::decode(&top_heavy).unwrap();
    let before = kll.encode().unwrap();
    let err = kll.merge_encoded(&top_heavy).unwrap_err();
    assert_eq!(
        err,
        Error::Sketch(sketch_sampled_streams::sketch::Error::WeightOverflow)
    );
    assert_eq!(
        kll.encode().unwrap(),
        before,
        "refusal left the receiver alone"
    );
}

/// A Misra–Gries body, every field the forger's to choose: capacity,
/// offset, offered weight, then the key and count columns.
fn mg_body(capacity: u64, offset: u64, offered: u64, keys: &[u64], counts: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(capacity);
    w.u64(offset);
    w.u64(offered);
    w.u64s(keys);
    w.u64s(counts);
    w.into_bytes()
}

/// `body` in a `misra-gries` payload of a capacity-`capacity` summary.
fn mg_payload(capacity: usize, body: &[u8]) -> Vec<u8> {
    let fingerprint = MisraGries::new(capacity).unwrap().fingerprint();
    payload("misra-gries", MisraGries::FORMAT, fingerprint, body)
}

/// An honest `multi` summary of two Misra–Gries candidates.
fn honest_multi(seed: u64) -> MultiSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng).top_k(2);
    spec.summary().unwrap()
}

/// `body` where an honest `multi` payload carries its heavy-hitter part.
fn multi_payload_heavy(body: &[u8]) -> Vec<u8> {
    multi_payload(&honest_multi(408), 1, body)
}

/// Every shape the Misra–Gries decode refuses comes back as the typed wire
/// error, from the summary's own payload and from inside a composite's.
#[test]
fn hostile_misra_gries_bodies_refuse_with_typed_errors() {
    let chunk = MisraGries::CHUNK as u64;
    let crowd: Vec<u64> = (0..chunk + 3).collect();
    let ones = vec![1u64; crowd.len()];
    let refused = [
        ("zero capacity", mg_body(0, 0, 0, &[], &[])),
        (
            "columns of different length",
            mg_body(2, 0, 9, &[1, 2], &[3]),
        ),
        (
            "more than capacity + chunk entries",
            mg_body(2, 0, chunk + 3, &crowd, &ones),
        ),
        ("a key twice", mg_body(2, 0, 9, &[5, 5], &[3, 3])),
        ("a zero counter", mg_body(2, 0, 9, &[5, 6], &[3, 0])),
        (
            "counters above the offered weight",
            mg_body(2, 0, 5, &[5, 6], &[3, 3]),
        ),
        (
            "an offset no compaction could have reached",
            mg_body(2, 2, 9, &[5, 6], &[3, 1]),
        ),
        (
            "counters that sum past a u64",
            mg_body(2, 0, u64::MAX, &[5, 6], &[u64::MAX, 1]),
        ),
        (
            "an offset whose shares pass a u64",
            mg_body(2, u64::MAX / 2, u64::MAX, &[], &[]),
        ),
    ];
    for (what, body) in &refused {
        let err = MisraGries::decode(&mg_payload(2, body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_payload_heavy(body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }
    // The edge of the invariant is a body a summary can write.
    let tight = mg_body(2, 2, 10, &[5, 6], &[3, 1]);
    MisraGries::decode(&mg_payload(2, &tight)).unwrap();
    MultiSummary::decode(&multi_payload_heavy(&tight)).unwrap();

    // Two summaries that together weigh more than a `u64` counts: the
    // merge refuses before it touches the receiver.
    let heavy = mg_payload(2, &mg_body(2, 0, u64::MAX, &[5], &[u64::MAX]));
    let mut mg = MisraGries::decode(&heavy).unwrap();
    let before = mg.encode().unwrap();
    let err = mg.merge_encoded(&heavy).unwrap_err();
    assert_eq!(
        err,
        Error::Sketch(sketch_sampled_streams::sketch::Error::WeightOverflow)
    );
    assert_eq!(mg.encode().unwrap(), before);
}

/// A HyperLogLog body, every field the forger's to choose: the registers,
/// the precision and the hash seed.
fn hll_body(registers: &[u8], precision: u64, seed: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(registers);
    w.u64(precision);
    w.u64(seed);
    w.into_bytes()
}

/// An honest `multi` summary whose HyperLogLog has precision 10.
fn honest_multi_hll() -> MultiSummary {
    let mut rng = StdRng::seed_from_u64(409);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng).distinct_precision(10);
    spec.summary().unwrap()
}

/// `body` in an `hll` payload of a precision-10 summary with `seed`.
fn hll_payload(seed: u64, body: &[u8]) -> Vec<u8> {
    let fingerprint = HyperLogLog::with_seed(10, seed).unwrap().fingerprint();
    payload("hll", HyperLogLog::FORMAT, fingerprint, body)
}

/// Every shape the HyperLogLog decode refuses — each of which used to
/// decode and then panic on first use — comes back as the typed wire
/// error, from the summary's own payload and from inside a composite's.
#[test]
fn hostile_hll_bodies_refuse_with_typed_errors() {
    let honest = honest_multi_hll();
    let seed = honest.hll().seed();
    let mut too_high = vec![0u8; 1 << 10];
    too_high[7] = 200;
    let mut one_past_the_top = vec![0u8; 1 << 10];
    one_past_the_top[1023] = 64 - 10 + 2;
    let refused = [
        (
            "three registers at precision 10",
            hll_body(&[0, 0, 0], 10, seed),
        ),
        ("a register of 200", hll_body(&too_high, 10, seed)),
        (
            "a register one above the largest rank",
            hll_body(&one_past_the_top, 10, seed),
        ),
        ("precision 0", hll_body(&[0], 0, seed)),
        ("precision 19", hll_body(&[], 19, seed)),
        ("precision past a byte", hll_body(&[], 266, seed)),
    ];
    for (what, body) in &refused {
        let err = HyperLogLog::decode(&hll_payload(seed, body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_payload(&honest, 2, body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }

    // The edge of the check is a body a summary can write: every register
    // at the rank of an all-zero hash tail.
    let saturated = hll_body(&vec![64 - 10 + 1; 1 << 10], 10, seed);
    let mut hll = HyperLogLog::decode(&hll_payload(seed, &saturated)).unwrap();
    let twin = hll.clone();
    hll.insert_batch(&(0..5_000u64).collect::<Vec<_>>());
    hll.merge(&twin).unwrap();
    assert!(hll.raw_distinct().is_finite());
    let mut multi = MultiSummary::decode(&multi_payload(&honest, 2, &saturated)).unwrap();
    let twin = multi.clone();
    multi.update_batch(&(0..5_000u64).collect::<Vec<_>>());
    multi.merge_from(&twin).unwrap();
    assert!(multi.distinct_estimate().value.is_finite());
}

/// The composite's own refusals: a snapshot in an older format (format 3
/// was JSON, format 2 carried a format-1 KLL body, format 1 a Count-Sketch
/// tracker where Misra–Gries is) is refused by its head, before the body,
/// and a JSON-generation file by its first byte; a body whose heavy-hitter
/// part belongs to another spec than the head and the join sketch next to
/// it is refused by fingerprint.
#[test]
fn hostile_multi_bodies_refuse_with_typed_errors() {
    let honest = honest_multi(408);
    let bytes = honest.encode().unwrap();
    let (head, body) = Head::open(&bytes).unwrap();
    assert_eq!(MultiSummary::FORMAT, 4);
    for older in [3, 2, 1] {
        let parent = Head {
            format: older,
            ..head.clone()
        };
        let err = MultiSummary::decode(&parent.seal(body)).unwrap_err();
        assert!(
            matches!(&err, Error::WireMismatch { found, .. } if *found == format!("multi v{older}")),
            "got {err:?}"
        );
        // ... whatever the body is: one no format ever wrote gets the same
        // answer, not a complaint about its fields.
        let err = MultiSummary::decode(&parent.seal(&[7])).unwrap_err();
        assert!(matches!(err, Error::WireMismatch { .. }), "got {err:?}");
    }
    let json = format!(
        "{{\"kind\":\"multi\",\"format\":3,\"fingerprint\":{},\"body\":{{\"join\":7}}}}",
        head.fingerprint
    );
    let err = MultiSummary::decode(json.as_bytes()).unwrap_err();
    assert!(
        matches!(&err, Error::WireMismatch { found, .. } if found.contains("JSON")),
        "got {err:?}"
    );

    let other_capacity = mg_body(3, 0, 0, &[], &[]);
    let err = MultiSummary::decode(&multi_payload_heavy(&other_capacity)).unwrap_err();
    assert!(
        matches!(err, Error::FingerprintMismatch { expected, found } if expected != found),
        "got {err:?}"
    );
    MultiSummary::decode(&bytes).unwrap();
}

/// The item counts and the capacity table are caches no body carries:
/// after the levels come exactly `k`, the weight, the coin and the sampler
/// seed, and decoding rebuilds the rest from them. A body that claims a
/// cache anyway (as format 1 did) is refused — its claim is bytes after
/// the body.
#[test]
fn kll_decode_recomputes_its_caches() {
    let mut honest = KllSketch::with_seed(8, 3).unwrap();
    honest.insert_batch(&(0..500u64).collect::<Vec<_>>());
    let bytes = honest.encode().unwrap();
    let (head, body) = Head::open(&bytes).unwrap();
    let mut r = Reader::new(body);
    let levels = r.count(1).unwrap();
    (0..levels).for_each(|_| {
        r.u64s().unwrap();
    });
    let fields: Vec<u64> = (0..4).map(|_| r.u64().unwrap()).collect();
    r.finish().unwrap();
    assert_eq!(
        fields[..2],
        [8, 500],
        "k and the weight, then coin and seed"
    );

    let mut claims = Writer::new();
    [0u64, 1_000_000, 0].iter().for_each(|&c| claims.u64(c));
    let lying = head.seal(&[body, &claims.into_bytes()].concat());
    let err = KllSketch::decode(&lying).unwrap_err();
    assert!(matches!(err, Error::Wire { .. }), "got {err:?}");

    let mut decoded = KllSketch::decode(&bytes).unwrap();
    assert_eq!(decoded.encode().unwrap(), bytes);
    assert_eq!(decoded.stored(), honest.stored());
    // ... and therefore keeps sampling and compacting where the original
    // would.
    let more: Vec<u64> = (500..900).collect();
    decoded.insert_batch(&more);
    honest.insert_batch(&more);
    assert_eq!(decoded.encode().unwrap(), honest.encode().unwrap());
}

/// Sampling levels a forger crowded (`k = 8` with six levels samples on
/// the bottom two) are halved on the way in: the weight is all there, each
/// holds at most one item — bit `h` of `n` — and the summary reads back
/// what it writes, before and after further inserts and a merge.
#[test]
fn crowded_sampling_levels_are_normalized_on_decode() {
    let levels = [
        vec![5, 1, 9],
        vec![2, 2, 8, 8, 3],
        vec![4],
        vec![],
        vec![],
        vec![7],
    ];
    let body = kll_body(&levels, 8, 3 + 10 + 4 + 32);
    let mut kll = KllSketch::decode(&kll_payload(8, &body)).unwrap();
    assert_eq!(kll.len(), 49);
    let check = kll_levels::assert_sampler_invariant;
    check(&kll);
    kll.insert_batch(&(0..1000u64).collect::<Vec<_>>());
    check(&kll);
    let twin = kll.clone();
    kll.merge(&twin).unwrap();
    check(&kll);
    assert_eq!(kll.len(), 2 * 1049);
    kll.raw_quantile(0.5).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever levels a body carries — overfull, out of order, under any
    /// `k`, sampling levels (up to five of the nine, at `k = 8`) crowded —
    /// if it decodes, then inserting, merging and querying it neither
    /// panic nor lose weight.
    #[test]
    fn accepted_kll_bodies_are_safe_to_use(
        levels in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..40), 1..10),
        small_k in 8u64..64,
        huge_k: bool,
    ) {
        let k = if huge_k { u64::MAX } else { small_k };
        let weight: u64 = levels.iter().enumerate().map(|(h, l)| (l.len() as u64) << h).sum();
        let body = kll_body(&levels, k, weight);

        let mut kll = KllSketch::decode(&kll_payload(k, &body)).unwrap();
        kll_levels::assert_sampler_invariant(&kll);
        let twin = kll.clone();
        for v in 0..50 {
            kll.insert(v);
        }
        kll.insert_batch(&(0..3000u64).collect::<Vec<_>>());
        kll.merge(&twin).unwrap();
        prop_assert_eq!(kll.len(), 2 * weight + 3050);
        kll_levels::assert_sampler_invariant(&kll);
        for q in [0.0, 0.5, 1.0] {
            kll.raw_quantile(q).unwrap();
        }

        let mut multi = MultiSummary::decode(&multi_payload_kll(k, &body)).unwrap();
        let twin = multi.clone();
        multi.update(1, 1);
        multi.update_batch(&(0..3000u64).collect::<Vec<_>>());
        multi.merge_from(&twin).unwrap();
        prop_assert_eq!(multi.stream_len(), 2 * weight + 3001);
        multi.quantile_with_bounds(0.5).unwrap();
    }

    /// Whatever counters a body carries — more than `capacity` of them, as
    /// heavy as the offered weight allows, offered up to the last `u64` —
    /// if it decodes, then offering, merging and querying it neither panic
    /// nor break the summary's bounds, alone or inside a composite.
    #[test]
    fn accepted_misra_gries_bodies_are_safe_to_use(
        counts in prop::collection::vec(1u64..1_000_000, 0..60),
        offset in 0u64..1000,
        slack in 0u64..5000,
        to_the_brim: bool,
    ) {
        let keys: Vec<u64> = (0..counts.len() as u64).map(|i| i * 7).collect();
        let accounted = counts.iter().sum::<u64>() + 3 * offset;
        let offered = if to_the_brim { u64::MAX - slack } else { accounted + slack };
        let body = mg_body(2, offset, offered, &keys, &counts);

        let mut mg = MisraGries::decode(&mg_payload(2, &body)).unwrap();
        let twin = mg.clone();
        for key in 0..50 {
            mg.offer(key, 1);
        }
        mg.offer_batch(&(0..7000u64).collect::<Vec<_>>());
        prop_assert!(mg.held() <= 2 + MisraGries::CHUNK);
        prop_assert!(mg.items_offered() >= offered);
        if to_the_brim {
            let before = mg.encode().unwrap();
            prop_assert_eq!(mg.merge(&twin), Err(sketch_sampled_streams::sketch::Error::WeightOverflow));
            prop_assert_eq!(mg.encode().unwrap(), before, "a refused merge touches nothing");
        } else {
            mg.merge(&twin).unwrap();
            prop_assert_eq!(mg.items_offered(), 2 * offered + 7050);
        }
        prop_assert!(mg.raw_top_k(5).len() <= 2);
        prop_assert!(mg.error_bound() <= mg.items_offered() / 3);
        // What it writes, it reads back.
        MisraGries::decode(&mg.encode().unwrap()).unwrap();

        let mut multi = MultiSummary::decode(&multi_payload_heavy(&body)).unwrap();
        let twin = multi.clone();
        multi.update(1, 1);
        multi.update_batch(&(0..7000u64).collect::<Vec<_>>());
        if to_the_brim {
            // The overflow is Misra–Gries's, the second part to merge: the
            // join sketch before it must not have moved either.
            let before = multi.encode().unwrap();
            prop_assert!(multi.merge_from(&twin).is_err());
            prop_assert_eq!(multi.encode().unwrap(), before, "a refused merge touches no part");
        } else {
            multi.merge_from(&twin).unwrap();
        }
        prop_assert!(multi.top_k_estimates(5).len() <= 2);
    }
}

// Every byte the test thread allocates, counted, so a decode can be held
// to a multiple of its input. Per thread, because the harness runs tests
// on several.
thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATED.try_with(|total| total.set(total.get().saturating_add(bytes)));
}

// SAFETY: every call forwards to the system allocator with the caller's
// own arguments, whose contracts are the ones `GlobalAlloc` states; the
// counting touches only a thread-local `Cell`, which does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What a decode may allocate: a small multiple of its input (a varint
/// byte can become an eight-byte word, and tables keep slack), plus a
/// constant for the fixed-size parts.
fn allocation_bound(input: usize) -> usize {
    64 * input + 64 * 1024
}

/// Decode `bytes` as `S` — holding the decode to [`allocation_bound`] —
/// and ask the value everything `answer` asks.
fn decode_and_answer<S: Portable>(bytes: &[u8], answer: impl FnOnce(&S)) -> Result<(), Error> {
    let before = ALLOCATED.with(Cell::get);
    let decoded = S::decode(bytes);
    let spent = ALLOCATED.with(Cell::get) - before;
    assert!(
        spent <= allocation_bound(bytes.len()),
        "{} decode of {} bytes allocated {spent}",
        S::KIND,
        bytes.len()
    );
    answer(&decoded?);
    Ok(())
}

fn join_answers<S: JoinQuery>(s: &S) {
    let est = s.self_join_estimate();
    let _ = black_box(est.chebyshev(0.99));
    let _ = black_box(est.clt(0.99));
    let _ = black_box(s.size_of_join_estimate(s));
}

fn topk_answers<S: TopKQuery>(s: &S) {
    for (key, _) in s.top_k_estimates(10) {
        black_box(s.frequency_estimate(key));
    }
    black_box(s.frequency_estimate(12_345));
}

fn distinct_answers<S: DistinctQuery>(s: &S) {
    let _ = black_box(s.distinct_estimate().chebyshev(0.99));
}

fn quantile_answers<S: QuantileQuery>(s: &S) {
    let _ = black_box(s.quantile_with_bounds(0.5));
    let _ = black_box(s.quantiles(&[0.0, 0.25, 1.0]));
    black_box((s.rank(42), s.rank_error(0.5), s.stream_len()));
}

/// A slim form answers nothing: what it decodes to must encode again.
fn reencodes<S: Portable>(s: &S) {
    black_box(s.encode().unwrap());
}

/// Decode `bytes` as the summary `kind` names and ask it every query its
/// kind answers. `agms` and `fagms` name `join` payloads over one backend.
fn answer_everything(kind: &str, bytes: &[u8]) -> Result<(), Error> {
    match kind {
        "agms" | "fagms" | "join" => decode_and_answer::<JoinSketch>(bytes, |s| {
            black_box(s.point_queries(&[1, 2, 3]));
            join_answers(s);
        }),
        "misra-gries" => decode_and_answer::<MisraGries>(bytes, topk_answers),
        "hll" => decode_and_answer::<HyperLogLog>(bytes, distinct_answers),
        "kll" => decode_and_answer::<KllSketch>(bytes, quantile_answers),
        "multi" => decode_and_answer::<MultiSummary>(bytes, |s| {
            join_answers(s);
            topk_answers(s);
            distinct_answers(s);
            quantile_answers(s);
        }),
        "slim-join" => decode_and_answer::<SlimJoin>(bytes, reencodes),
        "slim-multi" => decode_and_answer::<SlimMultiSummary>(bytes, reencodes),
        other => panic!("no kind {other}"),
    }
}

fn fed<S: Summary>(mut summary: S) -> S {
    let keys: Vec<u64> = (0..600u64).map(|i| (i * i) % 97).collect();
    summary.update_batch(&keys);
    summary
}

/// An honest payload of every kind, small enough to corrupt exhaustively.
fn honest_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(410);
    let agms: AgmsSchema = AgmsSchema::new(4, &mut rng);
    let fagms: FagmsSchema = FagmsSchema::new(2, 8, &mut rng);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 8, &mut rng), &mut rng)
        .top_k(4)
        .distinct_precision(4)
        .quantile_k(8);
    let multi = fed(spec.summary().unwrap());
    let slim = multi.slim();
    vec![
        (
            "agms",
            fed(JoinSchema::Agms(agms).sketch()).encode().unwrap(),
        ),
        (
            "fagms",
            fed(JoinSchema::Fagms(fagms).sketch()).encode().unwrap(),
        ),
        (
            "join",
            fed(JoinSchema::agms(4, &mut rng).sketch())
                .encode()
                .unwrap(),
        ),
        (
            "misra-gries",
            fed(MisraGries::new(4).unwrap()).encode().unwrap(),
        ),
        (
            "hll",
            fed(HyperLogLog::with_seed(4, 3).unwrap()).encode().unwrap(),
        ),
        (
            "kll",
            fed(KllSketch::with_seed(8, 5).unwrap()).encode().unwrap(),
        ),
        ("multi", multi.encode().unwrap()),
        ("slim-join", slim.join().encode().unwrap()),
        ("slim-multi", slim.encode().unwrap()),
    ]
}

/// `bytes` with the varint starting at `at` replaced by `value`.
fn with_varint(bytes: &[u8], at: usize, value: u64) -> Option<Vec<u8>> {
    let len = bytes[at..].iter().position(|&b| b < 0x80)? + 1;
    let mut w = Writer::new();
    w.u64(value);
    Some([&bytes[..at], &w.into_bytes(), &bytes[at + len..]].concat())
}

/// Every honest payload decodes and answers; every truncation of it is
/// refused; and every varint in it — so every length
/// prefix, the body's and each sequence's — rewritten to 2⁴⁰ and to 2⁶²
/// is either refused or decodes to a value that answers every query.
#[test]
fn truncated_and_overlong_payloads_of_every_kind_refuse_or_answer() {
    for (kind, bytes) in honest_payloads() {
        answer_everything(kind, &bytes).unwrap();
        for cut in 0..bytes.len() {
            let err = answer_everything(kind, &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, Error::Wire { .. }),
                "{kind} cut at {cut}: {err:?}"
            );
        }
        for at in 0..bytes.len() {
            for value in [1 << 40, 1 << 62] {
                if let Some(forged) = with_varint(&bytes, at, value) {
                    let _ = answer_everything(kind, &forged);
                }
            }
        }
    }
}

/// A decoded value's fingerprint is recomputed from its body and compared
/// with the head's: a head that names another configuration is refused,
/// whatever the kind.
fn assert_head_must_match_the_body(kind: &str) {
    let (_, bytes) = honest_payloads()
        .into_iter()
        .find(|(k, _)| *k == kind)
        .unwrap();
    answer_everything(kind, &bytes).unwrap();
    let (head, body) = Head::open(&bytes).unwrap();
    let other = Head {
        fingerprint: head.fingerprint ^ 1,
        ..head.clone()
    };
    let err = answer_everything(kind, &other.seal(body)).unwrap_err();
    assert_eq!(
        err,
        Error::FingerprintMismatch {
            expected: head.fingerprint,
            found: head.fingerprint ^ 1
        },
        "{kind}"
    );
}

#[test]
fn agms_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("agms");
}

#[test]
fn fagms_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("fagms");
}

#[test]
fn join_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("join");
}

#[test]
fn misra_gries_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("misra-gries");
}

#[test]
fn hll_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("hll");
}

#[test]
fn kll_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("kll");
}

#[test]
fn multi_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("multi");
}

#[test]
fn slim_join_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("slim-join");
}

#[test]
fn slim_multi_heads_must_match_their_bodies() {
    assert_head_must_match_the_body("slim-multi");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structure-aware corruption over every kind: honest payloads with
    /// random bytes flipped either refuse with a typed error or decode to a
    /// value that answers every query — within the allocation bound.
    /// (Every truncation and every forged length is the exhaustive test
    /// above.)
    #[test]
    fn corrupted_payloads_of_every_kind_refuse_or_answer(
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..6),
    ) {
        for (kind, mut bytes) in honest_payloads() {
            for &(at, mask) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            let _ = answer_everything(kind, &bytes);
        }
    }
}
