//! The codec's layout rules — varints at every width, floats as their
//! bits, lengths that must fit the bytes left, typed refusals — and
//! round-trips for every family: a persisted seed must reproduce the exact
//! same ±1 assignment, which is what allows sketches built on different
//! machines (or at different times) to be joined.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_xi::{
    Bch3, Bch5, BucketFamily, Codec, CodecError, Cw2, Cw2Bucket, Cw4, Eh3, Reader, SignFamily,
    Tabulation, Writer,
};

fn bytes_of<F: Codec>(family: &F) -> Vec<u8> {
    let mut w = Writer::new();
    family.put(&mut w);
    w.into_bytes()
}

fn restore<F: Codec>(bytes: &[u8]) -> F {
    let mut r = Reader::new(bytes);
    let family = F::take(&mut r).expect("decode");
    r.finish().expect("no trailing bytes");
    family
}

fn roundtrip_sign<F: SignFamily + Codec>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let original = F::random(&mut rng);
    let bytes = bytes_of(&original);
    let restored: F = restore(&bytes);
    assert_eq!(bytes_of(&restored), bytes, "re-encodes byte for byte");
    for key in (0..2000u64).chain([u64::MAX, 1 << 63]) {
        assert_eq!(original.sign(key), restored.sign(key), "key {key}");
    }
}

#[test]
fn sign_families_roundtrip() {
    roundtrip_sign::<Cw2>(1);
    roundtrip_sign::<Cw4>(2);
    roundtrip_sign::<Eh3>(3);
    roundtrip_sign::<Bch5>(4);
    roundtrip_sign::<Tabulation>(5);
    roundtrip_sign::<Bch3>(7);
}

#[test]
fn bucket_families_roundtrip() {
    let mut rng = StdRng::seed_from_u64(6);
    let original = Cw2Bucket::random(&mut rng);
    let restored: Cw2Bucket = restore(&bytes_of(&original));
    for key in 0..2000u64 {
        assert_eq!(original.bucket(key, 5000), restored.bucket(key, 5000));
    }
    let original = <Tabulation as BucketFamily>::random(&mut rng);
    let restored: Tabulation = restore(&bytes_of(&original));
    for key in 0..2000u64 {
        assert_eq!(original.bucket(key, 5000), restored.bucket(key, 5000));
    }
}

#[test]
fn truncated_tabulation_payload_is_rejected() {
    let mut w = Writer::new();
    (0..100u64).for_each(|word| w.u64(word));
    let bytes = w.into_bytes();
    let res = Tabulation::take(&mut Reader::new(&bytes));
    assert_eq!(
        res.err(),
        Some(CodecError::Truncated),
        "short table payloads must not decode"
    );
}

/// Coefficients at or above 2⁶¹ − 1 are reduced on the way in, as
/// `from_coeffs` reduces them: no body hands the kernels an unreduced one.
#[test]
fn unreduced_coefficients_are_reduced_on_decode() {
    let mut w = Writer::new();
    [u64::MAX, 5, 6, 7].iter().for_each(|&c| w.u64(c));
    let bytes = w.into_bytes();
    let decoded: Cw4 = restore(&bytes);
    assert_eq!(decoded, Cw4::from_coeffs([u64::MAX, 5, 6, 7]));
}

fn written(put: impl Fn(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    put(&mut w);
    w.into_bytes()
}

#[test]
fn numbers_round_trip_at_every_width() {
    let values = [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX];
    let bytes = written(|w| w.u64s(&values));
    assert_eq!(Reader::new(&bytes).u64s().unwrap(), values);
    assert_eq!(written(|w| w.u64(u64::MAX)).len(), 10);
    let signed = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
    let bytes = written(|w| w.i64s(&signed));
    assert_eq!(Reader::new(&bytes).i64s().unwrap(), signed);
    assert_eq!(written(|w| w.i64(-1)), [1]);
    let floats = [-0.0, 1.5e300, f64::NEG_INFINITY, f64::NAN];
    let bytes = written(|w| w.f64s(&floats));
    let back = Reader::new(&bytes).f64s().unwrap();
    assert!(floats
        .iter()
        .zip(&back)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn malformed_bytes_are_typed_errors() {
    assert_eq!(Reader::new(&[0x80, 0x80]).u64(), Err(CodecError::Truncated));
    let mut past_64_bits = vec![0xff; 9];
    past_64_bits.push(0x02);
    assert!(matches!(
        Reader::new(&past_64_bits).u64(),
        Err(CodecError::Invalid(_))
    ));
    assert_eq!(Reader::new(&[7; 7]).f64(), Err(CodecError::Truncated));
    assert!(matches!(
        Reader::new(&[2]).bool(),
        Err(CodecError::Invalid(_))
    ));
    let err = Reader::new(&[0, 9]).finish();
    assert_eq!(err, Err(CodecError::Trailing { left: 2 }));
}

/// A length the bytes left cannot back is refused before anything is
/// allocated for it, however large it claims to be.
#[test]
fn declared_lengths_must_fit_the_bytes_left() {
    for declared in [3u64, 1 << 40, 1 << 62, u64::MAX] {
        let bytes = written(|w| [declared, 1, 2].iter().for_each(|&v| w.u64(v)));
        let err = Reader::new(&bytes).u64s().unwrap_err();
        assert_eq!(err, CodecError::Length { declared, left: 2 });
    }
    // Eight bytes per float.
    let bytes = written(|w| {
        w.u64(3);
        w.f64(1.0);
        w.f64(2.0);
    });
    let err = Reader::new(&bytes).f64s().unwrap_err();
    assert_eq!(
        err,
        CodecError::Length {
            declared: 3,
            left: 16
        }
    );
    let bytes = written(|w| w.bytes(b"abc"));
    assert_eq!(Reader::new(&bytes).bytes().unwrap(), b"abc");
    assert!(Reader::new(&bytes[..3]).bytes().is_err());
}
