//! Wire round-trip properties of the `Portable` surface: for every
//! summary, shipping a snapshot through `encode` → `decode` →
//! `merge_encoded` is **bit-identical** to merging the live values in
//! memory — the property the multi-process aggregation path
//! (`sss save` | `sss merge-snapshots`) and the slim replica exchange
//! rest on. Plus the typed failure modes: mismatched configuration
//! fingerprints refuse to merge, foreign kinds refuse to decode, and a
//! KLL, Misra–Gries or HyperLogLog body that no summary could have written
//! refuses to decode while every body that does decode is safe to keep
//! using.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{
    wire, DistinctQuery, Error, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery,
    Summary, TopKQuery,
};
use sketch_sampled_streams::sketch::{
    CountSketchTopK, FagmsSchema, HeavyHitters, HyperLogLog, KllSketch, MisraGries,
};

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

    /// Count-Sketch top-k: both the sketch matrix and the candidate heap
    /// travel; merge re-ranks candidates against the merged matrix.
    #[test]
    fn count_sketch_topk_wire_merge_is_bit_identical(a in stream(), b in stream()) {
        let mut rng = StdRng::seed_from_u64(402);
        let schema: FagmsSchema = FagmsSchema::new(3, 128, &mut rng);
        assert_wire_merge_matches_memory(
            || CountSketchTopK::new(&schema, 16).unwrap(),
            &a,
            &b,
        );
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
    assert_eq!(decoded.self_join().to_bits(), empty.self_join().to_bits());

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
    assert_eq!(back.self_join().to_bits(), multi.self_join().to_bits());
    assert_eq!(back.distinct().to_bits(), multi.distinct().to_bits());
    assert_eq!(back.frequency(42).to_bits(), multi.frequency(42).to_bits());
    assert_eq!(
        back.quantile(0.5).unwrap().to_bits(),
        multi.quantile(0.5).unwrap().to_bits()
    );
}

/// Mismatched configurations refuse to merge with the *typed* error —
/// the fingerprint check happens on the envelope head, before any body
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

/// A KLL body as format 2 writes it, every field the forger's to choose.
fn kll_body(levels: &str, k: u64, n: u64) -> String {
    format!("{{\"compactors\":{levels},\"k\":{k},\"n\":{n},\"coin\":7,\"seed\":11}}")
}

/// `body` in a `kll` envelope of the given format.
fn kll_envelope_v(format: u32, body: &str) -> Vec<u8> {
    let fingerprint = KllSketch::with_seed(8, 0).unwrap().fingerprint();
    format!(
        "{{\"kind\":\"kll\",\"format\":{format},\"fingerprint\":{fingerprint},\"body\":{body}}}"
    )
    .into_bytes()
}

/// `body` in a `kll` envelope.
fn kll_envelope(body: &str) -> Vec<u8> {
    kll_envelope_v(KllSketch::FORMAT, body)
}

/// `body` where an honest `multi` envelope of accuracy parameter `k` (the
/// head's fingerprint covers it) carries its quantile part (the last field
/// of its body).
fn multi_envelope(k: u64, body: &str) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(407);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng)
        .quantile_k(usize::try_from(k.max(8)).unwrap());
    let honest = String::from_utf8(spec.summary().unwrap().encode().unwrap()).unwrap();
    let at = honest
        .find("\"quantiles\":")
        .expect("multi body names its parts");
    format!("{}\"quantiles\":{body}}}}}", &honest[..at]).into_bytes()
}

/// Every shape the KLL decode refuses comes back as the typed wire error,
/// from the summary's own envelope and from inside a composite's.
#[test]
fn hostile_kll_bodies_refuse_with_typed_errors() {
    let sixty_five_levels = format!("[{}]", vec!["[]"; 65].join(","));
    let refused = [
        ("no levels", kll_body("[]", 8, 0)),
        ("k below the minimum", kll_body("[[1,2]]", 7, 2)),
        ("more than 64 levels", kll_body(&sixty_five_levels, 8, 0)),
        ("weight above the levels'", kll_body("[[1,2],[3]]", 8, 5)),
        ("weight below the levels'", kll_body("[[1,2],[3]]", 8, 3)),
        (
            "levels heavier than a u64",
            kll_body(&format!("[{}[1,2]]", "[],".repeat(63)), 8, 0),
        ),
        (
            "no sampler seed",
            kll_body("[[1,2]]", 8, 2).replace(",\"seed\":11", ""),
        ),
    ];
    for (what, body) in &refused {
        let err = KllSketch::decode(&kll_envelope(body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_envelope(8, body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }

    // The parent's format 1 (no sampler seed, two cached counts) is refused
    // by its head — whether the body is one format 1 wrote, one format 2
    // would accept, or nothing a KLL ever wrote.
    assert_eq!(KllSketch::FORMAT, 2);
    let format_1 =
        "{\"compactors\":[[1,2]],\"k\":8,\"n\":2,\"coin\":7,\"stored\":2,\"cap_total\":8}";
    for body in [format_1, &kll_body("[[1,2]]", 8, 2), "{\"k\":true}"] {
        let err = KllSketch::decode(&kll_envelope_v(1, body)).unwrap_err();
        assert!(
            matches!(&err, Error::WireMismatch { found, .. } if found == "kll v1"),
            "got {err:?}"
        );
    }

    // One item at level 63 weighs 2⁶³: a body the decoder rightly accepts,
    // and two of them are more than a `u64` counts. The merge refuses
    // before it touches the receiver.
    let top_heavy = kll_envelope(&kll_body(&format!("[{}[1]]", "[],".repeat(63)), 8, 1 << 63));
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

/// A Misra–Gries body as format 1 writes it, every field the forger's to
/// choose.
fn mg_body(capacity: u64, offset: u64, offered: u64, keys: &[u64], counts: &[u64]) -> String {
    format!(
        "{{\"capacity\":{capacity},\"offset\":{offset},\"offered\":{offered},\
         \"keys\":{keys:?},\"counts\":{counts:?}}}"
    )
}

/// `body` in a `misra-gries` envelope.
fn mg_envelope(capacity: usize, body: &str) -> Vec<u8> {
    let fingerprint = MisraGries::new(capacity).unwrap().fingerprint();
    format!(
        "{{\"kind\":\"misra-gries\",\"format\":1,\"fingerprint\":{fingerprint},\"body\":{body}}}"
    )
    .into_bytes()
}

/// An honest `multi` summary of two Misra–Gries candidates, as text.
fn honest_multi(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng).top_k(2);
    String::from_utf8(spec.summary().unwrap().encode().unwrap()).unwrap()
}

/// `body` where an honest `multi` envelope carries its heavy-hitter part.
fn multi_envelope_heavy(body: &str) -> Vec<u8> {
    let honest = honest_multi(408);
    let from = honest
        .find("\"heavy\":")
        .expect("multi body names its parts");
    let to = honest.find(",\"distinct\":").expect("heavy is not last");
    format!("{}\"heavy\":{body}{}", &honest[..from], &honest[to..]).into_bytes()
}

/// Every shape the Misra–Gries decode refuses comes back as the typed wire
/// error, from the summary's own envelope and from inside a composite's.
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
        let err = MisraGries::decode(&mg_envelope(2, body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_envelope_heavy(body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }
    // The edge of the invariant is a body a summary can write.
    let tight = mg_body(2, 2, 10, &[5, 6], &[3, 1]);
    MisraGries::decode(&mg_envelope(2, &tight)).unwrap();
    MultiSummary::decode(&multi_envelope_heavy(&tight)).unwrap();

    // Two summaries that together weigh more than a `u64` counts: the
    // merge refuses before it touches the receiver.
    let heavy = mg_envelope(2, &mg_body(2, 0, u64::MAX, &[5], &[u64::MAX]));
    let mut mg = MisraGries::decode(&heavy).unwrap();
    let before = mg.encode().unwrap();
    let err = mg.merge_encoded(&heavy).unwrap_err();
    assert_eq!(
        err,
        Error::Sketch(sketch_sampled_streams::sketch::Error::WeightOverflow)
    );
    assert_eq!(mg.encode().unwrap(), before);
}

/// A HyperLogLog body as format 1 writes it, every field the forger's to
/// choose.
fn hll_body(registers: &[u8], precision: u8, seed: u64) -> String {
    format!("{{\"registers\":{registers:?},\"precision\":{precision},\"seed\":{seed}}}")
}

/// `body` in an `hll` envelope.
fn hll_envelope(body: &str) -> Vec<u8> {
    let fingerprint = HyperLogLog::with_seed(10, 5).unwrap().fingerprint();
    format!("{{\"kind\":\"hll\",\"format\":1,\"fingerprint\":{fingerprint},\"body\":{body}}}")
        .into_bytes()
}

/// An honest `multi` summary whose HyperLogLog has precision 10.
fn honest_multi_hll() -> MultiSummary {
    let mut rng = StdRng::seed_from_u64(409);
    let spec = MultiSpec::new(JoinSchema::fagms(2, 32, &mut rng), &mut rng).distinct_precision(10);
    spec.summary().unwrap()
}

/// `body` where the honest `multi` envelope of [`honest_multi_hll`] carries
/// its distinct-count part.
fn multi_envelope_distinct(body: &str) -> Vec<u8> {
    let honest = String::from_utf8(honest_multi_hll().encode().unwrap()).unwrap();
    let from = honest
        .find("\"distinct\":")
        .expect("multi body names its parts");
    let to = honest
        .find(",\"quantiles\":")
        .expect("distinct is not last");
    format!("{}\"distinct\":{body}{}", &honest[..from], &honest[to..]).into_bytes()
}

/// Every shape the HyperLogLog decode refuses — each of which used to
/// decode and then panic on first use — comes back as the typed wire
/// error, from the summary's own envelope and from inside a composite's.
#[test]
fn hostile_hll_bodies_refuse_with_typed_errors() {
    let seed = honest_multi_hll().hll().seed();
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
    ];
    for (what, body) in &refused {
        let err = HyperLogLog::decode(&hll_envelope(body)).unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{what}: got {err:?}");
        let err = MultiSummary::decode(&multi_envelope_distinct(body)).unwrap_err();
        assert!(
            matches!(err, Error::Wire { .. }),
            "{what} in multi: got {err:?}"
        );
    }

    // The edge of the check is a body a summary can write: every register
    // at the rank of an all-zero hash tail.
    let saturated = hll_body(&vec![64 - 10 + 1; 1 << 10], 10, seed);
    let mut hll = HyperLogLog::decode(&hll_envelope(&saturated)).unwrap();
    let twin = hll.clone();
    hll.insert_batch(&(0..5_000u64).collect::<Vec<_>>());
    hll.merge(&twin).unwrap();
    assert!(hll.raw_distinct().is_finite());
    let mut multi = MultiSummary::decode(&multi_envelope_distinct(&saturated)).unwrap();
    let twin = multi.clone();
    multi.update_batch(&(0..5_000u64).collect::<Vec<_>>());
    multi.merge_from(&twin).unwrap();
    assert!(multi.distinct().is_finite());
}

/// The composite's own refusals: a snapshot in an older format (format 2
/// carried a format-1 KLL body, format 1 a Count-Sketch tracker where
/// Misra–Gries is) is refused by its head, before the body; a body whose
/// heavy-hitter part belongs to another spec than the head and the join
/// sketch next to it is refused by fingerprint.
#[test]
fn hostile_multi_bodies_refuse_with_typed_errors() {
    let honest = honest_multi(408);
    assert_eq!(MultiSummary::FORMAT, 3);
    for older in [2, 1] {
        let parent = honest.replacen("\"format\":3", &format!("\"format\":{older}"), 1);
        let err = MultiSummary::decode(parent.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, Error::WireMismatch { found, .. } if *found == format!("multi v{older}")),
            "got {err:?}"
        );
        // ... whatever the body is: one no format ever wrote gets the same
        // answer, not a complaint about its fields.
        let at = parent.find("\"body\":").unwrap();
        let hollow = format!("{}\"body\":{{\"join\":7}}}}", &parent[..at]);
        let err = MultiSummary::decode(hollow.as_bytes()).unwrap_err();
        assert!(matches!(err, Error::WireMismatch { .. }), "got {err:?}");
    }

    let other_capacity = mg_body(3, 0, 0, &[], &[]);
    let err = MultiSummary::decode(&multi_envelope_heavy(&other_capacity)).unwrap_err();
    assert!(
        matches!(err, Error::FingerprintMismatch { expected, found } if expected != found),
        "got {err:?}"
    );
    MultiSummary::decode(honest.as_bytes()).unwrap();
}

/// The item counts and the capacity table are caches no body carries: a
/// body that claims them anyway (as format 1 did) decodes to the summary
/// its levels describe.
#[test]
fn kll_decode_recomputes_its_caches() {
    let mut honest = KllSketch::with_seed(8, 3).unwrap();
    honest.insert_batch(&(0..500u64).collect::<Vec<_>>());
    let text = String::from_utf8(honest.encode().unwrap()).unwrap();
    assert!(!text.contains("stored") && !text.contains("cap_total"));
    let body_end = text.len() - 2;
    let lying = format!(
        "{},\"stored\":0,\"cap_total\":1000000,\"base\":0}}}}",
        &text[..body_end]
    );
    let mut decoded = KllSketch::decode(lying.as_bytes()).unwrap();
    assert_eq!(decoded.encode().unwrap(), text.as_bytes());
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
    let body = kll_body("[[5,1,9],[2,2,8,8,3],[4],[],[],[7]]", 8, 3 + 10 + 4 + 32);
    let mut kll = KllSketch::decode(&kll_envelope(&body)).unwrap();
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
        let text = format!("{levels:?}");
        let body = kll_body(&text, k, weight);

        let mut kll = KllSketch::decode(&kll_envelope(&body)).unwrap();
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

        let mut multi = MultiSummary::decode(&multi_envelope(k, &body)).unwrap();
        let twin = multi.clone();
        multi.update(1, 1);
        multi.update_batch(&(0..3000u64).collect::<Vec<_>>());
        multi.merge_from(&twin).unwrap();
        prop_assert_eq!(multi.stream_len(), 2 * weight + 3001);
        multi.quantile(0.5).unwrap();
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

        let mut mg = MisraGries::decode(&mg_envelope(2, &body)).unwrap();
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

        let mut multi = MultiSummary::decode(&multi_envelope_heavy(&body)).unwrap();
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
        prop_assert!(multi.top_k(5).len() <= 2);
    }
}
