//! Served bytes: the query plane's answers at 1 and 2 shards, pinned byte
//! for byte.
//!
//! One `IngestClient` feeds an in-process `RunningServer` one Zipf stream,
//! so the batches reach the shards in one order. The answers to the four
//! request lines the ledger sends after every write, and the snapshot
//! flushed at shutdown, are pinned as FNV-1a hashes as in `tests/golden.rs`;
//! one error line, whose message echoes a quote, a backslash, C0 controls
//! and a non-ASCII character, is pinned as text. A change that moves any of
//! them re-pins the table in the same diff and says why in CHANGES.md; on a
//! mismatch the test prints the lines it read and the table it computed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::{JoinSchema, MultiSpec};
use sketch_sampled_streams::datagen::ZipfGenerator;
use sketch_sampled_streams::net::{IngestClient, QueryClient, RunningServer, ServerConfig};
use sketch_sampled_streams::stream::RuntimeConfig;

const TUPLES: usize = 1 << 16;
const BATCH: usize = 512;

/// The ledger's four request lines, at its confidence of 0.99.
const REQUESTS: [&str; 4] = [
    r#"{"cmd":"self_join","confidence":0.99}"#,
    r#"{"cmd":"distinct","confidence":0.99}"#,
    r#"{"cmd":"quantile","q":0.5}"#,
    r#"{"cmd":"topk","k":10,"confidence":0.99}"#,
];

/// A line the parser refuses at its first key, echoing the bytes after
/// the brace: a non-ASCII letter, a tab, two other C0 controls, a quote
/// and a backslash.
const MALFORMED: &str = "{é\t\u{1}\u{1f}\"\\x}";

/// The error line `MALFORMED` gets: the tab as `\t`, the other controls
/// as lowercase `\u00XX`, the quote and backslash escaped, `é` as it is.
const MALFORMED_ANSWER: &str =
    r#"{"ok":false,"error":"expected a quoted key at: é\t\u0001\u001f\"\\x"}"#;

/// The shard counts served, in the column order of `GOLDEN`.
const SHARDS: [usize; 2] = [1, 2];

/// FNV-1a of each answer, in `REQUESTS` order, then of the snapshot file.
#[rustfmt::skip]
const GOLDEN: [[u64; 2]; 5] = [
    [0x3ea1f9f36d67798e, 0x3ea1f9f36d67798e],
    [0xb2f9fbe1702a6234, 0xb2f9fbe1702a6234],
    [0x05c4e1ab962783f2, 0x12c9f660aa710815],
    [0xb2170e3cc78a8281, 0xb2170e3cc78a8281],
    [0xd3205019cc63313b, 0x8c1719fc8c703093],
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Serve the stream at `shards`; the four answers, the error line and the
/// snapshot flushed at shutdown.
fn serve(shards: usize) -> ([String; 4], String, Vec<u8>) {
    let snapshot = std::env::temp_dir().join(format!(
        "sss-served-golden-{}-{shards}.sss",
        std::process::id()
    ));
    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards,
            ..RuntimeConfig::default()
        },
        snapshot_path: Some(snapshot.clone()),
        ..ServerConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    let spec = MultiSpec::new(JoinSchema::fagms(5, 1024, &mut rng), &mut rng);
    let server = RunningServer::start(config, &spec).expect("server starts");
    let mut rng = StdRng::seed_from_u64(0x601d);
    let keys = ZipfGenerator::new(1 << 14, 1.1).relation(TUPLES, &mut rng);
    let mut ingest = IngestClient::connect(server.ingest_addr()).unwrap();
    for batch in keys.chunks(BATCH) {
        ingest.send_batch(batch).unwrap();
    }
    ingest.sync().unwrap();
    let mut queries = QueryClient::connect(server.query_addr()).unwrap();
    let answers = REQUESTS.map(|line| queries.request(line).unwrap());
    let error = queries.request(MALFORMED).unwrap();
    ingest.finish().unwrap();
    server.shutdown_and_wait().unwrap();
    let bytes = std::fs::read(&snapshot).expect("the snapshot was flushed");
    std::fs::remove_file(&snapshot).unwrap();
    (answers, error, bytes)
}

#[test]
fn served_answers_and_snapshot_match_the_golden_table() {
    let mut table = [[0; 2]; 5];
    let mut lines = Vec::new();
    for (column, shards) in SHARDS.into_iter().enumerate() {
        let (answers, error, snapshot) = serve(shards);
        assert_eq!(error, MALFORMED_ANSWER, "{shards} shard(s)");
        for (row, answer) in answers.iter().enumerate() {
            table[row][column] = fnv1a(answer.as_bytes());
            lines.push(format!("{shards} shard(s): {answer}"));
        }
        table[4][column] = fnv1a(&snapshot);
    }
    if table != GOLDEN {
        eprintln!("{}", lines.join("\n"));
        for [one, two] in table {
            eprintln!("    [{one:#018x}, {two:#018x}],");
        }
        panic!("served bytes moved; the table above is what this build serves");
    }
}
