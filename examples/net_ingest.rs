//! Network ingest without the CLI: embed the ingest service in-process
//! and speak its binary wire protocol from a hand-rolled client.
//!
//! The server side is two lines — [`ServerConfig`] + [`RunningServer`].
//! The client side deliberately does **not** use
//! [`IngestClient`](sketch_sampled_streams::net::IngestClient): it
//! writes the length-prefixed frames by hand against a plain
//! `TcpStream`, showing everything an embedding in another language (or
//! another process with no dependency on this crate) needs to implement:
//!
//! 1. read the server's `HELLO_OK` banner frame (a payload head with an
//!    empty body: kind, format, configuration fingerprint),
//! 2. echo it back as `HELLO` and wait for the empty `HELLO_OK` ack —
//!    a mismatched client is rejected *here*, with a typed error code,
//!    before any data moves,
//! 3. stream `BATCH` frames (`u32 count` + `count × u64` keys, all
//!    little-endian), pipelined without waiting,
//! 4. end with a `SYNC` cookie and wait for `SYNC_OK`: every batch sent
//!    before the sync is now applied to the shards and visible to
//!    at-all-times queries.
//!
//! A raw query-plane exchange (newline-delimited JSON on a second port)
//! closes the loop, then a shutdown command drains the rings and hands
//! the example the final merged [`MultiSummary`].
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example net_ingest
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::JoinSchema;
use sketch_sampled_streams::core::{wire, DistinctQuery, JoinQuery, MultiSpec};
use sketch_sampled_streams::net::{RunningServer, ServerConfig};

// The protocol constants, restated locally the way a foreign-language
// client would hard-code them (they are stable wire contract, see
// `sss_net::protocol`).
const FRAME_HELLO: u8 = 0x01;
const FRAME_BATCH: u8 = 0x02;
const FRAME_SYNC: u8 = 0x03;
const FRAME_HELLO_OK: u8 = 0x81;
const FRAME_SYNC_OK: u8 = 0x83;

/// Write one `[u32 len][u8 type][payload]` frame (len counts the type
/// byte plus the payload).
fn write_frame(out: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    out.write_all(&(1 + payload.len() as u32).to_le_bytes())?;
    out.write_all(&[tag])?;
    out.write_all(payload)
}

/// Read one frame, returning its type byte and payload.
fn read_frame(stream: &mut impl Read) -> std::io::Result<(u8, Vec<u8>)> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    Ok((body[0], body.split_off(1)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Server: the whole embedding ------------------------------------
    let mut rng = StdRng::seed_from_u64(2009);
    let spec = MultiSpec::new(JoinSchema::fagms(3, 5000, &mut rng), &mut rng);
    let srv = RunningServer::start(ServerConfig::default(), &spec)?;
    println!("ingest plane  {}", srv.ingest_addr());
    println!("query plane   {}", srv.query_addr());

    // ---- Hand-rolled ingest client --------------------------------------
    let mut wire = TcpStream::connect(srv.ingest_addr())?;

    // 1. The server speaks first: its banner is the wire head of the
    //    summary it maintains.
    let (tag, banner) = read_frame(&mut wire)?;
    assert_eq!(tag, FRAME_HELLO_OK);
    let head = wire::peek(&banner)?;
    println!(
        "banner        {} v{}, fingerprint {:#018x} ({} bytes)",
        head.kind,
        head.format,
        head.fingerprint,
        banner.len()
    );

    // 2. Echoing the banner *is* a correct handshake (a real foreign
    //    client would compare kind/format/fingerprint against its own
    //    expectations first). A client built for a different summary
    //    configuration is rejected right here with a typed error frame.
    write_frame(&mut wire, FRAME_HELLO, &banner)?;
    let (tag, _) = read_frame(&mut wire)?;
    assert_eq!(tag, FRAME_HELLO_OK, "handshake accepted");

    // 3. Stream batches: u32 key count, then the keys, little-endian.
    //    Frames are pipelined — no per-batch round trip.
    let mut sent = 0u64;
    for batch_index in 0..200u64 {
        let keys: Vec<u64> = (0..512).map(|i| (batch_index * 512 + i) % 1000).collect();
        let mut payload = Vec::with_capacity(4 + keys.len() * 8);
        payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for key in &keys {
            payload.extend_from_slice(&key.to_le_bytes());
        }
        write_frame(&mut wire, FRAME_BATCH, &payload)?;
        sent += keys.len() as u64;
    }

    // 4. The sync barrier: once SYNC_OK comes back, every batch above
    //    is applied to the shards.
    write_frame(&mut wire, FRAME_SYNC, &7u64.to_le_bytes())?;
    wire.flush()?;
    let (tag, cookie) = read_frame(&mut wire)?;
    assert_eq!(tag, FRAME_SYNC_OK);
    assert_eq!(cookie, 7u64.to_le_bytes());
    println!("synced        {sent} tuples acknowledged");

    // ---- Raw query plane ------------------------------------------------
    // Newline-delimited JSON: one request line in, one response line out.
    let mut query = TcpStream::connect(srv.query_addr())?;
    query.write_all(b"{\"cmd\":\"self_join\",\"confidence\":0.95}\n")?;
    let mut lines = BufReader::new(query.try_clone()?);
    let mut line = String::new();
    lines.read_line(&mut line)?;
    println!("self_join     {}", line.trim_end());

    line.clear();
    query.write_all(b"{\"cmd\":\"topk\",\"k\":3}\n")?;
    lines.read_line(&mut line)?;
    println!("topk          {}", line.trim_end());

    // ---- Shutdown: drain, merge, hand the summary back ------------------
    query.write_all(b"{\"cmd\":\"shutdown\"}\n")?;
    line.clear();
    lines.read_line(&mut line)?;
    let merged = srv.wait()?;
    println!(
        "merged        self_join {:.0}, distinct {:.0} (exact: {} and {})",
        merged.self_join_estimate().value,
        merged.distinct_estimate().value,
        // 200 batches of 512 keys cycling 0..1000: every key appears
        // 102 or 103 times.
        (0..1000u64)
            .map(|k| {
                let n = (0..200 * 512u64).filter(|i| i % 1000 == k).count() as u64;
                n * n
            })
            .sum::<u64>(),
        1000
    );
    Ok(())
}
