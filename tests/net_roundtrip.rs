//! End-to-end tests of the ingest service: wire-ingested runs must be
//! bit-identical to in-process `push`, protocol violations must be
//! typed and single-connection, and the service gauges must be
//! monotonic across connection churn.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_core::wire::{FrameError, Head};
use sss_core::{JoinSchema, MultiSpec, MultiSummary, Portable, Summary};
use sss_net::protocol;
use sss_net::{IngestClient, NetError, QueryClient, RunningServer, ServerConfig};
use sss_stream::runtime::RuntimeConfig;
use sss_stream::{Partition, ShardedRuntime};
use sss_xi::{splitmix64, Dispatch};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A small spec every test agrees on (seeded, so fingerprints match
/// across independently constructed copies).
fn spec(seed: u64) -> MultiSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiSpec::new(JoinSchema::fagms(2, 64, &mut rng), &mut rng)
        .distinct_precision(6)
        .quantile_k(64)
}

fn server(seed: u64, shards: usize, partition: Partition) -> RunningServer {
    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards,
            queue_depth: 8,
            partition,
        },
        ..ServerConfig::default()
    };
    RunningServer::start(config, &spec(seed)).expect("server starts")
}

/// Read one `[len][type][payload]` frame from a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).ok()?;
    let len = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    Some((body[0], body[1..].to_vec()))
}

/// Complete the banner handshake on a raw socket (echoing the head),
/// for tests that then violate the protocol deliberately.
fn raw_handshake(stream: &mut TcpStream) -> Vec<u8> {
    let (tag, banner) = read_raw_frame(stream).expect("banner");
    assert_eq!(tag, protocol::FRAME_HELLO_OK);
    let mut hello = Vec::new();
    protocol::write_frame(&mut hello, protocol::FRAME_HELLO, &banner);
    stream.write_all(&hello).unwrap();
    let (tag, _) = read_raw_frame(stream).expect("handshake ack");
    assert_eq!(tag, protocol::FRAME_HELLO_OK);
    banner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance-criteria pin: a stream ingested over the wire by
    /// one connection produces a merged summary **bit-identical** to
    /// in-process `push` of the same batches into an identically
    /// configured runtime (same spec, same shard count, same batch
    /// boundaries — KLL is insertion-order-dependent, so the guarantee
    /// is stated for an identical delivery schedule, exactly as the
    /// in-process linearity tests state it).
    #[test]
    fn wire_ingest_is_bit_identical_to_in_process_push(
        keys in prop::collection::vec(any::<u64>(), 1..600),
        chunk in 1usize..97,
        shards in 1usize..3,
        seed in 0u64..1000,
    ) {
        let config = RuntimeConfig {
            shards,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        };

        // In-process reference.
        let prototype = spec(seed).summary().unwrap();
        let mut reference = ShardedRuntime::new(config, &prototype).unwrap();
        for batch in keys.chunks(chunk) {
            reference.push(batch).unwrap();
        }
        let expect = reference.into_merged().unwrap();

        // Same batches over the wire.
        let srv = RunningServer::start(
            ServerConfig { runtime: config, ..ServerConfig::default() },
            &spec(seed),
        ).unwrap();
        let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
        for batch in keys.chunks(chunk) {
            client.send_batch(batch).unwrap();
        }
        client.sync().unwrap();
        client.finish().unwrap();
        let got = srv.shutdown_and_wait().unwrap();

        prop_assert_eq!(got.encode().unwrap(), expect.encode().unwrap());
    }
}

#[test]
fn handshake_rejects_wrong_fingerprint_and_kind_with_typed_codes() {
    let srv = server(42, 1, Partition::RoundRobin);

    // Wrong fingerprint: same kind/format, different configuration.
    let bad = Head {
        kind: MultiSummary::KIND.to_string(),
        format: MultiSummary::FORMAT,
        fingerprint: 0xdead_beef,
    };
    match IngestClient::connect_checked(srv.ingest_addr(), &bad) {
        Err(NetError::Core(sss_core::Error::Frame(FrameError::Rejected { code, .. }))) => {
            assert_eq!(code, protocol::ERR_FINGERPRINT);
        }
        other => panic!("expected a fingerprint rejection, got {other:?}"),
    }

    // Wrong kind entirely.
    let alien = Head {
        kind: "join".to_string(),
        format: 1,
        fingerprint: 1,
    };
    match IngestClient::connect_checked(srv.ingest_addr(), &alien) {
        Err(NetError::Core(sss_core::Error::Frame(FrameError::Rejected { code, .. }))) => {
            assert_eq!(code, protocol::ERR_WIRE_MISMATCH);
        }
        other => panic!("expected a wire-mismatch rejection, got {other:?}"),
    }

    // The rejections closed only their own connections: a correct
    // client still gets through and ingests.
    let mut good = IngestClient::connect(srv.ingest_addr()).unwrap();
    good.send_batch(&[1, 2, 3]).unwrap();
    good.sync().unwrap();
    assert_eq!(srv.stats().tuples_ingested(), 3);
    assert_eq!(srv.stats().protocol_errors(), 2);
    srv.shutdown_and_wait().unwrap();
}

#[test]
fn malformed_frames_close_one_connection_and_spare_the_rest() {
    let srv = server(7, 2, Partition::Hash);
    let mut good = IngestClient::connect(srv.ingest_addr()).unwrap();
    good.send_batch(&[10, 20, 30, 40]).unwrap();
    good.sync().unwrap();

    // An HTTP client wanders in: its request line reads as an absurd
    // length prefix. The server must answer with a typed ERROR frame
    // and close that connection only.
    let mut http = TcpStream::connect(srv.ingest_addr()).unwrap();
    let _banner = read_raw_frame(&mut http).expect("banner");
    http.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (tag, payload) = read_raw_frame(&mut http).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);
    assert!(matches!(
        protocol::decode_error(&payload),
        FrameError::Rejected {
            code: protocol::ERR_PROTOCOL,
            ..
        }
    ));
    let mut rest = Vec::new();
    http.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server closes after the error frame");

    // A batch before the handshake is its own typed violation.
    let mut eager = TcpStream::connect(srv.ingest_addr()).unwrap();
    let _banner = read_raw_frame(&mut eager).expect("banner");
    let mut frame = Vec::new();
    protocol::write_batch(&mut frame, &[1, 2, 3]);
    eager.write_all(&frame).unwrap();
    let (tag, payload) = read_raw_frame(&mut eager).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);
    let detail = protocol::decode_error(&payload).to_string();
    assert!(detail.contains("handshake"), "got: {detail}");

    // A batch whose key count contradicts its length, on a completed
    // handshake.
    let mut liar = TcpStream::connect(srv.ingest_addr()).unwrap();
    raw_handshake(&mut liar);
    let mut bad_batch = Vec::new();
    // Claims 7 keys, carries 1.
    let payload: Vec<u8> = 7u32
        .to_le_bytes()
        .iter()
        .chain(42u64.to_le_bytes().iter())
        .copied()
        .collect();
    protocol::write_frame(&mut bad_batch, protocol::FRAME_BATCH, &payload);
    liar.write_all(&bad_batch).unwrap();
    let (tag, _) = read_raw_frame(&mut liar).expect("error frame");
    assert_eq!(tag, protocol::FRAME_ERROR);

    // Through all three failures the good connection kept streaming,
    // and no partial batch leaked into the gauges.
    good.send_batch(&[50, 60]).unwrap();
    good.sync().unwrap();
    let stats = srv.stats();
    assert_eq!(stats.tuples_ingested(), 6);
    assert_eq!(stats.protocol_errors(), 3);
    let merged = srv.shutdown_and_wait().unwrap();
    // Exactly the good client's six tuples were sketched: an
    // identically configured in-process runtime fed the same batches
    // (same delivery schedule — KLL is insertion-order-dependent)
    // produces the same bytes.
    let mut reference = ShardedRuntime::new(
        RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::Hash,
        },
        &spec(7).summary().unwrap(),
    )
    .unwrap();
    reference.push(&[10, 20, 30, 40]).unwrap();
    reference.push(&[50, 60]).unwrap();
    let expect = reference.into_merged().unwrap();
    assert_eq!(merged.encode().unwrap(), expect.encode().unwrap());
}

#[test]
fn gauges_are_monotonic_across_reconnects_and_mid_batch_disconnects() {
    let srv = server(9, 1, Partition::RoundRobin);
    let stats = srv.stats();

    // First client: 5 tuples, then a clean disconnect.
    let mut first = IngestClient::connect(srv.ingest_addr()).unwrap();
    first.send_batch(&[1, 2, 3, 4, 5]).unwrap();
    first.sync().unwrap();
    first.finish().unwrap();
    assert_eq!(stats.tuples_ingested(), 5);
    assert_eq!(stats.batches_ingested(), 1);

    // Reconnect: the gauge continues, it does not reset with the
    // connection.
    let mut second = IngestClient::connect(srv.ingest_addr()).unwrap();
    second.send_batch(&[6, 7]).unwrap();
    second.sync().unwrap();
    assert_eq!(stats.tuples_ingested(), 7);

    // A third client dies mid-frame: the truncated batch must count as
    // a protocol error, never as ingested tuples.
    let mut dying = TcpStream::connect(srv.ingest_addr()).unwrap();
    raw_handshake(&mut dying);
    let mut frame = Vec::new();
    protocol::write_batch(&mut frame, &[100, 200, 300]);
    dying.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(dying);

    // The disconnect lands asynchronously; the still-open connection
    // keeps working while we wait for it to register.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while stats.protocol_errors() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(stats.protocol_errors(), 1, "truncated stream is typed");
    assert_eq!(stats.tuples_ingested(), 7, "partial batch never counted");

    second.send_batch(&[8]).unwrap();
    second.sync().unwrap();
    assert_eq!(stats.tuples_ingested(), 8);
    assert!(stats.tuples_per_sec() > 0.0);
    assert_eq!(stats.connections_accepted(), 3);
    srv.shutdown_and_wait().unwrap();
}

#[test]
fn query_plane_answers_all_four_families_and_shutdown_snapshots() {
    let dir = std::env::temp_dir().join(format!("sss-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("final.sss");

    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        snapshot_path: Some(snapshot.clone()),
        ..ServerConfig::default()
    };
    let srv = RunningServer::start(config, &spec(3)).unwrap();

    let keys: Vec<u64> = (0..500u64).map(|i| i % 50).collect();
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    for batch in keys.chunks(64) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();

    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();

    // All four query families answer ok, with interval fields when a
    // confidence level rides along.
    let sj = queries
        .request("{\"cmd\":\"self_join\",\"confidence\":0.95}")
        .unwrap();
    assert!(sj.contains("\"ok\":true"), "{sj}");
    assert!(sj.contains("half_width_chebyshev"), "{sj}");
    let distinct = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    assert!(distinct.contains("\"ok\":true"), "{distinct}");
    let quantile = queries.request("{\"cmd\":\"quantile\",\"q\":0.5}").unwrap();
    assert!(quantile.contains("\"lo\""), "{quantile}");
    let topk = queries.request("{\"cmd\":\"topk\",\"k\":5}").unwrap();
    assert!(topk.contains("\"top\":["), "{topk}");
    let stats_line = queries.stats_line().unwrap();
    assert!(stats_line.contains("\"tuples\":500"), "{stats_line}");
    // The kernel path is picked at run time: the server names the one the
    // process runs.
    let kernels = format!("\"kernels\":\"{}\"", Dispatch::get().label());
    assert!(stats_line.contains(&kernels), "{stats_line}");

    // A malformed query line is an error *response*, not a dropped
    // connection.
    let bad = queries.request("{\"q\":0.5}").unwrap();
    assert!(bad.contains("\"ok\":false"), "{bad}");
    let still = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    assert!(still.contains("\"ok\":true"), "{still}");

    // The wire answer matches the in-process oracle bit for bit.
    let server_value = queries.self_join_bits().unwrap();
    let mut oracle = spec(3).summary().unwrap();
    oracle.update_batch(&keys);
    use sss_core::JoinQuery;
    assert_eq!(
        server_value.to_bits(),
        oracle.self_join_estimate().value.to_bits(),
        "the replica answer must be bit-identical to the sequential oracle"
    );

    // Client-driven shutdown: drains, snapshots, exits. The merged
    // state is bit-identical to an identically sharded in-process run
    // of the same batches (the flat `oracle` above only pins the
    // linear self-join value — KLL bytes depend on the shard split).
    queries.shutdown().unwrap();
    let merged = srv.wait().unwrap();
    let mut reference = ShardedRuntime::new(
        RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        &spec(3).summary().unwrap(),
    )
    .unwrap();
    for batch in keys.chunks(64) {
        reference.push(batch).unwrap();
    }
    let expect = reference.into_merged().unwrap();
    assert_eq!(merged.encode().unwrap(), expect.encode().unwrap());

    // The final snapshot is a loadable Portable payload of the same
    // state.
    let bytes = std::fs::read(&snapshot).unwrap();
    let decoded = MultiSummary::decode(&bytes).unwrap();
    assert_eq!(decoded.encode().unwrap(), merged.encode().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// An error response is JSON whatever the client sent: parse errors echo
/// client bytes, and control characters, quotes and backslashes come back
/// as JSON escapes (`protocol` module docs), byte for byte.
#[test]
fn query_plane_errors_are_json_strings() {
    let srv = server(4, 1, Partition::RoundRobin);
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    for (line, answer) in [
        (
            "{\u{1}\u{0}}",
            r#"{"ok":false,"error":"expected a quoted key at: \u0001\u0000"}"#,
        ),
        (
            "{x\ty\rz}",
            r#"{"ok":false,"error":"expected a quoted key at: x\ty\rz"}"#,
        ),
        (
            "{\"cmd\":\"x\\y\"}",
            r#"{"ok":false,"error":"unknown cmd \"x\\\\y\""}"#,
        ),
    ] {
        assert_eq!(queries.request(line).unwrap(), answer, "{line:?}");
    }
    srv.shutdown_and_wait().unwrap();
}

/// A query field outside its domain gets the error line, which names the
/// field: a `confidence` outside `(0, 1)` is not answered without its
/// interval, and a `k` that is negative or fractional is not bent to a
/// whole one. A key the plane does not know is skipped whatever scalar it
/// holds, an escaped quote inside a string included.
#[test]
fn out_of_domain_query_fields_are_refused_by_name() {
    let srv = server(4, 1, Partition::RoundRobin);
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    let confidence = r#"\"confidence\" must be in (0, 1), got"#;
    let k = r#"\"k\" must be a non-negative whole number, got"#;
    for (line, rule, got) in [
        (r#"{"cmd":"self_join","confidence":1.5}"#, confidence, "1.5"),
        (r#"{"cmd":"distinct","confidence":0}"#, confidence, "0"),
        (r#"{"cmd":"self_join","confidence":NaN}"#, confidence, "NaN"),
        (
            r#"{"cmd":"topk","k":10,"confidence":-0.5}"#,
            confidence,
            "-0.5",
        ),
        (r#"{"cmd":"topk","k":-3}"#, k, "-3"),
        (r#"{"cmd":"topk","k":2.5}"#, k, "2.5"),
        (r#"{"cmd":"topk","k":inf}"#, k, "inf"),
    ] {
        let answer = format!(r#"{{"ok":false,"error":"{rule} {got}"}}"#);
        assert_eq!(queries.request(line).unwrap(), answer, "{line}");
    }
    for line in [
        "{\"cmd\":\"self_join\",\"confidence\":0.99}",
        "{\"cmd\":\"topk\",\"k\":0}",
        "{\"cmd\":\"topk\",\"k\":2e0,\"confidence\":0.5}",
        "{\"cmd\":\"stats\",\"tag\":null}",
        "{\"cmd\":\"stats\",\"verbose\":true}",
        "{\"cmd\":\"stats\",\"note\":\"a\\\"b\"}",
    ] {
        let answer = queries.request(line).unwrap();
        assert!(answer.starts_with("{\"ok\":true,"), "{line}: {answer}");
    }
    srv.shutdown_and_wait().unwrap();
}

/// `{"cmd":"stats"}` carries the ring's high-water mark and the snapshot
/// cache's counters: after ingest, a `self_join` and a `distinct` at
/// `max_pending = 8` a batch has occupied a ring, and the cache was
/// rebuilt. Opening a replica and a read in place fold nothing, so the
/// rebuild is the `distinct`'s refresh of the query connection's replica,
/// which opened on the merge of no batch with twenty accepted.
#[test]
fn stats_line_reports_ring_and_cache_gauges() {
    let config = ServerConfig {
        runtime: RuntimeConfig {
            shards: 2,
            queue_depth: 8,
            partition: Partition::RoundRobin,
        },
        max_pending: 8,
        ..ServerConfig::default()
    };
    let srv = RunningServer::start(config, &spec(6)).expect("server starts");
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    for batch in (0..2_000u64).collect::<Vec<_>>().chunks(100) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    queries.self_join_bits().unwrap();
    queries.request(r#"{"cmd":"distinct"}"#).unwrap();
    let line = queries.stats_line().unwrap();
    let gauge = |name| protocol::response_u64(&line, name).expect(name);
    assert!(gauge("queue_high_water") >= 1, "{line}");
    assert!(gauge("cache_rebuilds") >= 1, "{line}");
    assert!(line.contains("\"cache_hits\":"), "{line}");
    srv.shutdown_and_wait().unwrap();
}

/// `SYNC_OK` means applied, not queued: once `sync()` returns on a
/// two-shard hash server fed a backlog, and before any query catches a
/// shard up, the stats line's runtime gauge counts every accepted tuple.
/// The query connection, and the replica it opens, predate the ingest.
#[test]
fn a_sync_returns_once_every_accepted_tuple_is_applied() {
    let srv = server(21, 2, Partition::Hash);
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    let line = queries.stats_line().unwrap();
    assert_eq!(protocol::response_u64(&line, "tuples"), Some(0), "{line}");
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    let keys: Vec<u64> = (0..4096u64).map(|i| splitmix64(i) % 100_000).collect();
    for _ in 0..256 {
        client.send_batch(&keys).unwrap();
    }
    client.sync().unwrap();
    let line = queries.stats_line().unwrap();
    let gauge = |name| protocol::response_u64(&line, name).expect(name);
    assert_eq!(gauge("tuples"), 256 * 4096, "{line}");
    assert_eq!(gauge("runtime_tuples"), gauge("tuples"), "{line}");
    srv.shutdown_and_wait().unwrap();
}

/// At `max_pending = 0` every answer is read fresh, so the stats line's
/// replica gauges count the batches the shards have applied and those
/// they have yet to: after a `SYNC`, all 40 and none, though the query
/// connection opened its replica before the first batch.
#[test]
fn fresh_replica_gauges_count_the_applied_batches() {
    let srv = server(22, 2, Partition::RoundRobin);
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    queries.stats_line().unwrap();
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    for batch in (0..4_000u64).collect::<Vec<_>>().chunks(100) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();
    let line = queries.stats_line().unwrap();
    let gauge = |name| protocol::response_u64(&line, name).expect(name);
    let gauges = (gauge("replica_version"), gauge("replica_pending"));
    assert_eq!(gauges, (40, 0), "{line}");
    srv.shutdown_and_wait().unwrap();
}

/// A turn's batches go onto the rings without waking a worker per batch,
/// and the worker whose ring still holds a batch is woken once the turn's
/// answers are out. A connection that sends batches and never a `SYNC`,
/// then idles with the connection open, is applied within 5 s with no
/// query issued: the stats line reads gauges and catches nothing up.
#[test]
fn batches_left_unsynced_are_applied_while_the_connection_idles() {
    let srv = server(22, 2, Partition::RoundRobin);
    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    queries.stats_line().unwrap();
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    // Six batches, three a shard: no ring fills, which would wake its
    // worker before the turn ends.
    for batch in (0..3_000u64).collect::<Vec<_>>().chunks(500) {
        client.send_batch(batch).unwrap();
    }
    client.flush().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let line = queries.stats_line().unwrap();
        let gauge = |name| protocol::response_u64(&line, name).expect(name);
        if gauge("tuples") == 3_000 && gauge("runtime_tuples") == 3_000 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never applied: {line}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    client.finish().unwrap();
    srv.shutdown_and_wait().unwrap();
}

/// No batch goes missing from the served path: a query applies what a
/// shard's worker has not yet, so after any query-plane answer the stats line's runtime gauge counts every tuple
/// the ingest plane accepted before that query, at one and two
/// hash-partitioned shards, batch after small batch.
#[test]
fn every_answer_covers_every_tuple_accepted_before_it() {
    let requests = [
        r#"{"cmd":"self_join"}"#,
        r#"{"cmd":"distinct"}"#,
        r#"{"cmd":"quantile","q":0.5}"#,
        r#"{"cmd":"topk","k":3}"#,
    ];
    for shards in [1, 2] {
        let srv = server(12, shards, Partition::Hash);
        let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
        let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
        let mut accepted = 0u64;
        for round in 0..48u64 {
            let batch: Vec<u64> = (0..1 + round * 7 % 61)
                .map(|i| splitmix64(round << 8 | i) % 500)
                .collect();
            client.send_batch(&batch).unwrap();
            client.sync().unwrap();
            accepted += batch.len() as u64;
            let request = requests[round as usize % requests.len()];
            let answer = queries.request(request).unwrap();
            assert!(answer.starts_with(r#"{"ok":true"#), "{request}: {answer}");
            let line = queries.stats_line().unwrap();
            let gauge = |name| protocol::response_u64(&line, name).expect(name);
            assert_eq!(gauge("tuples"), accepted, "{shards} shards: {line}");
            assert_eq!(
                gauge("runtime_tuples"),
                accepted,
                "{shards} shards, after {request}: {line}"
            );
        }
        srv.shutdown_and_wait().unwrap();
    }
}

/// A pipelined burst of query lines whose answers (≈ 16 MiB) overflow the
/// socket buffers is answered in full and in order: the server arms write
/// interest while its answers back up and disarms it once they are out,
/// after which the connection still answers.
#[test]
fn a_pipelined_query_burst_is_answered_in_full_and_in_order() {
    use std::io::BufRead;
    let srv = server(7, 1, Partition::RoundRobin);
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    // 256 keys, so every one of the 256 Misra–Gries counters holds one and
    // a `topk` of 256 answers ≈ 16 KiB.
    let keys: Vec<u64> = (0..40_000u64).map(|i| splitmix64(i) % 256).collect();
    for batch in keys.chunks(512) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();

    const ROUNDS: usize = 1_000;
    let mut stream = TcpStream::connect(srv.query_addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let burst: String = (0..ROUNDS)
        .map(|i| format!("{{\"cmd\":\"topk\",\"k\":256}}\n{{\"cmd\":\"round{i}\"}}\n"))
        .collect();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut lines = std::io::BufReader::new(stream.try_clone().unwrap()).lines();
    let mut next = || lines.next().expect("an answer per line").unwrap();
    let topk = next();
    assert!(topk.matches("\"key\":").count() == 256, "{topk}");
    for i in 0..ROUNDS {
        if i > 0 {
            assert_eq!(next(), topk, "round {i}");
        }
        assert_eq!(
            next(),
            format!("{{\"ok\":false,\"error\":\"unknown cmd \\\"round{i}\\\"\"}}")
        );
    }
    stream.write_all(b"{\"cmd\":\"distinct\"}\n").unwrap();
    assert!(next().starts_with("{\"ok\":true,\"cmd\":\"distinct\""));
    srv.shutdown_and_wait().unwrap();
}

/// One request line, one state. At `max_pending = 0` every read is
/// fresh, so a `quantile` response whose value and `(lo, hi)` came from
/// two reads could straddle an ingest batch. Each wave here is three times
/// everything before it and far above it, so one state's median lies
/// outside the next state's envelope; every response polled while the
/// waves arrive must still be self-consistent. (The race is inside the
/// server, so this only watches for it; the forced form is
/// `runtime_properties.rs::a_value_and_its_envelope_come_from_one_state`.)
#[test]
fn quantile_responses_never_straddle_frames_under_ingest() {
    let srv = server(5, 1, Partition::RoundRobin);
    let ingest_addr = srv.ingest_addr();
    let ingest = std::thread::spawn(move || {
        let mut client = IngestClient::connect(ingest_addr).unwrap();
        for wave in 0..8u64 {
            let keys: Vec<u64> = (0..100 * 3u64.pow(wave as u32))
                .map(|j| wave * 10_000_000 + j)
                .collect();
            for batch in keys.chunks(512) {
                client.send_batch(batch).unwrap();
            }
            client.sync().unwrap();
        }
        client.finish().unwrap();
    });

    let mut queries = QueryClient::connect(srv.query_addr()).unwrap();
    let mut poll = |answered: &mut u64| {
        let line = queries.request("{\"cmd\":\"quantile\",\"q\":0.5}").unwrap();
        if !line.contains("\"ok\":true") {
            return; // nothing ingested yet: no value to report
        }
        let field =
            |name: &str| f64::from_bits(protocol::response_u64(&line, name).expect("bits field"));
        let (lo, value, hi) = (field("lo_bits"), field("value_bits"), field("hi_bits"));
        assert!(lo <= value && value <= hi, "straddled: {line}");
        *answered += 1;
    };
    let mut answered = 0u64;
    while !ingest.is_finished() {
        poll(&mut answered);
    }
    ingest.join().unwrap();
    poll(&mut answered);
    assert!(answered > 0);
    srv.shutdown_and_wait().unwrap();
}

/// Resident memory of process `pid` in KiB (`None` where `/proc` is not
/// what Linux makes it).
fn resident_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A spawned `sss serve` that does not outlive a failed assertion.
struct Served(std::process::Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// What a spawned `sss serve` prints after its banner.
type Banner = std::io::Lines<std::io::BufReader<std::process::ChildStdout>>;

/// A spawned one-shard `sss serve` (a child process, so its memory is its
/// own), the rest of its stdout, and its ingest and query addresses.
fn serve_child() -> (Served, Banner, String, String) {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let mut child = Served(
        Command::new(env!("CARGO_BIN_EXE_sss"))
            .args(["serve", "--ingest=127.0.0.1:0", "--query=127.0.0.1:0"])
            .args(["--shards=1", "--seed=1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    let mut banner = std::io::BufReader::new(child.0.stdout.take().unwrap()).lines();
    let (mut ingest, mut query) = (None, None);
    for line in banner.by_ref() {
        let line = line.unwrap();
        if let Some(addr) = line.strip_prefix("ingest") {
            ingest = Some(addr.trim().to_string());
        }
        if let Some(addr) = line.strip_prefix("query") {
            query = Some(addr.trim().to_string());
        }
        if line.starts_with("fingerprint") {
            break;
        }
    }
    let ingest = ingest.expect("banner carries the ingest address");
    let query = query.expect("banner carries the query address");
    (child, banner, ingest, query)
}

/// A query client that never sends a newline is refused once and closed:
/// 1 MiB of it gets the one-line refusal, not a 1 MiB buffer in the server
/// (a child process, so its memory is its own), 16 MiB of it gets dropped
/// on the way, and another client's queries keep being answered.
#[test]
fn newline_free_query_flood_is_refused_without_buffering() {
    use std::io::{BufRead, BufReader};
    const FLOOD: usize = 1 << 20;

    let (mut child, banner, _, query_addr) = serve_child();

    let mut bystander = QueryClient::connect(query_addr.as_str()).unwrap();
    let distinct = "{\"cmd\":\"distinct\"}";
    assert!(bystander.request(distinct).unwrap().contains("\"ok\":true"));

    // An honest line first, so the connection's buffers exist before the
    // reading is taken.
    let mut flood = TcpStream::connect(query_addr.as_str()).unwrap();
    flood
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    flood.write_all(format!("{distinct}\n").as_bytes()).unwrap();
    let mut answers = BufReader::new(flood.try_clone().unwrap());
    let mut line = String::new();
    answers.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    let before = resident_kib(child.0.id());

    let piece = [b'x'; 16 << 10];
    for _ in 0..FLOOD / piece.len() {
        flood.write_all(&piece).unwrap();
    }
    line.clear();
    answers
        .read_line(&mut line)
        .expect("a refusal, not silence");
    assert!(
        line.starts_with("{\"ok\":false") && line.contains("exceeds"),
        "{line}"
    );
    line.clear();
    assert_eq!(
        answers.read_line(&mut line).unwrap(),
        0,
        "then closed: {line}"
    );

    // A flood that does not stop is not read for ever: past a bounded
    // discard the server drops the connection and the writes start failing.
    let mut endless = TcpStream::connect(query_addr.as_str()).unwrap();
    let cut_off = (0..(16 * FLOOD) / piece.len()).any(|_| endless.write_all(&piece).is_err());
    assert!(cut_off, "a refused connection was read for 16 MiB");

    if let (Some(before), Some(after)) = (before, resident_kib(child.0.id())) {
        assert!(
            after < before + (FLOOD as u64 / 1024) / 2,
            "server grew {before} -> {after} KiB under a {FLOOD}-byte line"
        );
    }
    assert!(bystander.request(distinct).unwrap().contains("\"ok\":true"));
    bystander.shutdown().unwrap();
    // The server prints its closing gauges; read them so it can.
    banner.for_each(drop);
    assert!(child.0.wait().unwrap().success());
}

/// A query client that sends and never reads costs the server a bounded
/// buffer, not the answers its requests expand to: 256 KiB of `topk` lines
/// would be ≈ 160 MiB of answers. The server stops reading it once 1 MiB
/// of answers waits, keeps answering everyone else, and picks up where it
/// stopped once the client reads.
#[test]
fn a_query_client_that_never_reads_is_answered_in_bounded_memory() {
    use std::io::{BufRead, BufReader};
    use std::time::{Duration, Instant};
    const FLOOD: usize = 256 << 10;

    let (mut child, banner, ingest_addr, query_addr) = serve_child();
    // Every one of 256 keys is a Misra–Gries candidate, so a `topk` of 256
    // answers ≈ 14.5 KB to a 23-byte line.
    let mut client = IngestClient::connect(ingest_addr.as_str()).unwrap();
    let keys: Vec<u64> = (0..40_000u64).map(|i| splitmix64(i) % 256).collect();
    for batch in keys.chunks(512) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();
    client.finish().unwrap();

    let topk = "{\"cmd\":\"topk\",\"k\":256}\n";
    let mut flood = TcpStream::connect(query_addr.as_str()).unwrap();
    flood
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    flood.write_all(topk.as_bytes()).unwrap();
    let mut answers = BufReader::new(flood.try_clone().unwrap());
    let mut first = String::new();
    answers.read_line(&mut first).unwrap();
    assert_eq!(first.matches("\"key\":").count(), 256, "{first}");
    let mut bystander = QueryClient::connect(query_addr.as_str()).unwrap();
    let distinct = "{\"cmd\":\"distinct\"}";
    assert!(bystander.request(distinct).unwrap().contains("\"ok\":true"));
    let before = resident_kib(child.0.id());

    // The writes block once the server stops reading, so they run beside
    // the reads below.
    let lines = FLOOD / topk.len();
    let mut writer = flood.try_clone().unwrap();
    let flooding =
        std::thread::spawn(move || writer.write_all(topk.repeat(lines).as_bytes()).unwrap());
    std::thread::sleep(Duration::from_millis(200));
    let asked = Instant::now();
    assert!(bystander.request(distinct).unwrap().contains("\"ok\":true"));
    let waited = asked.elapsed();
    std::thread::sleep(Duration::from_millis(800));
    if let (Some(before), Some(after)) = (before, resident_kib(child.0.id())) {
        assert!(
            after < before + (16 << 10),
            "server grew {before} -> {after} KiB under an unread flood"
        );
    }
    assert!(
        waited < Duration::from_millis(500),
        "a bystander waited {waited:?} behind the flood"
    );

    let mut line = String::new();
    for i in 0..lines {
        line.clear();
        answers.read_line(&mut line).unwrap();
        assert_eq!(line, first, "answer {i} of {lines}");
    }
    flooding.join().unwrap();
    assert!(bystander.request(distinct).unwrap().contains("\"ok\":true"));
    bystander.shutdown().unwrap();
    banner.for_each(drop);
    assert!(child.0.wait().unwrap().success());
}

/// A client that shuts its write half after its last request still gets
/// every answer, then end of stream: on the query plane 500 `topk` lines
/// whose answers outlast the socket buffers, on the ingest plane a `SYNC`.
#[test]
fn a_half_closed_client_gets_every_answer() {
    use std::io::{BufRead, BufReader};
    const LINES: usize = 500;
    let srv = server(8, 1, Partition::RoundRobin);
    let mut client = IngestClient::connect(srv.ingest_addr()).unwrap();
    let keys: Vec<u64> = (0..40_000u64).map(|i| splitmix64(i) % 256).collect();
    for batch in keys.chunks(512) {
        client.send_batch(batch).unwrap();
    }
    client.sync().unwrap();

    let mut queries = TcpStream::connect(srv.query_addr()).unwrap();
    queries
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let topk = "{\"cmd\":\"topk\",\"k\":256}\n";
    queries.write_all(topk.repeat(LINES).as_bytes()).unwrap();
    queries.shutdown(std::net::Shutdown::Write).unwrap();
    let answers: Vec<String> = BufReader::new(queries)
        .lines()
        .map(|line| line.unwrap())
        .collect();
    assert_eq!(answers.len(), LINES, "then end of stream");
    assert_eq!(answers[0].matches("\"key\":").count(), 256);
    assert!(answers.iter().all(|a| *a == answers[0]));

    let mut ingest = TcpStream::connect(srv.ingest_addr()).unwrap();
    raw_handshake(&mut ingest);
    let mut frames = Vec::new();
    protocol::write_batch(&mut frames, &[1, 2, 3]);
    protocol::write_sync(&mut frames, protocol::FRAME_SYNC, 77);
    ingest.write_all(&frames).unwrap();
    ingest.shutdown(std::net::Shutdown::Write).unwrap();
    let (tag, payload) = read_raw_frame(&mut ingest).expect("the SYNC is answered");
    assert_eq!(tag, protocol::FRAME_SYNC_OK);
    assert_eq!(protocol::decode_sync(&payload).unwrap(), 77);
    let mut rest = Vec::new();
    ingest.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "then end of stream");
    client.finish().unwrap();
    srv.shutdown_and_wait().unwrap();
}

/// Retry `admitted` for up to 10 s: a closed connection leaves its
/// plane's count once its thread has seen it go.
fn eventually(mut admitted: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !admitted() {
        assert!(std::time::Instant::now() < deadline, "never admitted");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Each plane serves at most 64 connections at once. The next one reads
/// one refusal, then end of stream; it counts neither as accepted nor as
/// a protocol error; and once an open connection closes, a new one is
/// admitted.
#[test]
fn each_plane_refuses_the_connection_past_its_cap() {
    use std::io::{BufRead, BufReader};
    const CAP: usize = 64;
    let srv = server(12, 1, Partition::RoundRobin);
    let stats = srv.stats();
    let distinct = "{\"cmd\":\"distinct\"}";

    // The ingest plane speaks first: a banner means admitted.
    let banner = |stream: &mut TcpStream| {
        read_raw_frame(stream).is_some_and(|(tag, _)| tag == protocol::FRAME_HELLO_OK)
    };
    let mut ingest: Vec<TcpStream> = (0..CAP)
        .map(|_| TcpStream::connect(srv.ingest_addr()).unwrap())
        .collect();
    assert!(ingest.iter_mut().all(banner));
    let mut refused = TcpStream::connect(srv.ingest_addr()).unwrap();
    let (tag, payload) = read_raw_frame(&mut refused).expect("one refusal");
    assert_eq!(tag, protocol::FRAME_ERROR);
    let refusal = protocol::decode_error(&payload).to_string();
    assert!(refusal.contains("64 connections open"), "{refusal}");
    let mut rest = Vec::new();
    refused.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "then end of stream");
    assert_eq!(stats.connections_accepted(), CAP as u64);
    drop(ingest.pop());
    eventually(|| banner(&mut TcpStream::connect(srv.ingest_addr()).unwrap()));
    assert_eq!(stats.connections_accepted(), CAP as u64 + 1);

    // The query plane answers a line: an answer means admitted.
    let mut queries: Vec<QueryClient> = (0..CAP)
        .map(|_| QueryClient::connect(srv.query_addr()).unwrap())
        .collect();
    for client in &mut queries {
        assert!(client.request(distinct).unwrap().contains("\"ok\":true"));
    }
    let mut refused = BufReader::new(TcpStream::connect(srv.query_addr()).unwrap());
    let mut line = String::new();
    refused.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("{\"ok\":false") && line.contains("64 connections open"),
        "{line}"
    );
    line.clear();
    assert_eq!(
        refused.read_line(&mut line).unwrap(),
        0,
        "then end of stream"
    );
    drop(queries.pop());
    eventually(|| {
        let mut client = QueryClient::connect(srv.query_addr()).unwrap();
        client
            .request(distinct)
            .is_ok_and(|answer| answer.contains("\"ok\":true"))
    });

    assert_eq!(stats.protocol_errors(), 0);
    srv.shutdown_and_wait().unwrap();
}

/// Voluntary context switches of all of process `pid`'s threads.
#[cfg(target_os = "linux")]
fn voluntary_switches(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("procfs");
    tasks
        .filter_map(|task| {
            let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?;
            switches.trim().parse::<u64>().ok()
        })
        .sum()
}

/// An idle `sss serve` sleeps: after one ingest batch and one query, with
/// both connections still open, all of its threads together make at most
/// a few voluntary context switches in a second. A server that woke on a
/// timer would make tens.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_server_sleeps() {
    use std::time::Duration;
    let (mut child, banner, ingest_addr, query_addr) = serve_child();
    let mut ingest = IngestClient::connect(ingest_addr.as_str()).unwrap();
    ingest.send_batch(&[1, 2, 3]).unwrap();
    ingest.sync().unwrap();
    let mut queries = QueryClient::connect(query_addr.as_str()).unwrap();
    let answer = queries.request("{\"cmd\":\"distinct\"}").unwrap();
    assert!(answer.contains("\"ok\":true"), "{answer}");
    std::thread::sleep(Duration::from_millis(100));

    let before = voluntary_switches(child.0.id());
    std::thread::sleep(Duration::from_secs(1));
    let woke = voluntary_switches(child.0.id()).saturating_sub(before);
    assert!(woke <= 5, "an idle server switched {woke} times in 1 s");

    queries.shutdown().unwrap();
    banner.for_each(drop);
    assert!(child.0.wait().unwrap().success());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frame reader survives arbitrary corruption: any byte soup,
    /// delivered in any chunking, yields frames or one typed error —
    /// never a panic, never an untyped failure.
    #[test]
    fn frame_reader_never_panics_on_corrupt_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..2000),
        chunk in 1usize..64,
    ) {
        let mut reader = protocol::FrameReader::new();
        'outer: for piece in bytes.chunks(chunk) {
            reader.extend(piece);
            loop {
                match reader.next_frame() {
                    Ok(Some((_tag, payload))) => {
                        // Decoders on arbitrary payloads must also be
                        // typed-total.
                        let mut sink = Vec::new();
                        let _ = protocol::decode_batch_into(payload, &mut sink);
                        let _ = protocol::decode_sync(payload);
                        let _ = protocol::decode_error(payload);
                    }
                    Ok(None) => break,
                    Err(_typed) => break 'outer,
                }
            }
        }
        // finish() is equally total.
        let _ = reader.finish();
    }
}
