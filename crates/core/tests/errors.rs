//! Error-path coverage: every error variant renders a useful message and
//! carries its source.

use sss_core::Error;
use std::error::Error as _;

#[test]
fn display_messages_are_informative() {
    let cases: Vec<(Error, &str)> = vec![
        (
            Error::Sampling(sss_sampling::Error::InvalidProbability(1.5)),
            "1.5",
        ),
        (Error::Sketch(sss_sketch::Error::SchemaMismatch), "schema"),
        (
            Error::Moments(sss_moments::Error::DomainMismatch { left: 2, right: 3 }),
            "different domains",
        ),
        (Error::InsufficientSample { got: 1, need: 2 }, "at least 2"),
        (Error::ScanOverrun { population: 10 }, "relation size 10"),
        (Error::IncompatibleEstimators, "schema"),
    ];
    for (err, needle) in cases {
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "message {msg:?} should mention {needle:?}"
        );
    }
}

#[test]
fn sources_are_preserved() {
    let err = Error::Sampling(sss_sampling::Error::EmptyPopulation);
    assert!(err.source().is_some(), "wrapped errors expose their source");
    let err = Error::InsufficientSample { got: 0, need: 2 };
    assert!(err.source().is_none(), "leaf errors have no source");
}

#[test]
fn conversions_from_subsystem_errors() {
    let e: Error = sss_sampling::Error::EmptyPopulation.into();
    assert!(matches!(e, Error::Sampling(_)));
    let e: Error = sss_sketch::Error::InvalidDimensions.into();
    assert!(matches!(e, Error::Sketch(_)));
    let e: Error = sss_moments::Error::InvalidAverageCount(0).into();
    assert!(matches!(e, Error::Moments(_)));
}
