//! Logs whose record checksums hold but whose payloads are hostile. A
//! flipped byte under a stale checksum stops `wal::scan` cleanly, so
//! every payload byte of a small log is XORed with a mask and its
//! record's checksum patched to match. Each mangled log then goes
//! through every reader in turn — `wal::scan` and `decode_tx`,
//! `GraphEngine::open_durable_with` (which replays it through a standing
//! view) and one commit on the engine that opened — and each must return
//! `Ok` or a typed error: a panic or an abort (a huge allocation
//! included) fails the sweep. The sibling of `hostile_images.rs`, which
//! does the same to snapshot images.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::path::PathValue;
use pgq_common::value::Value;
use pgq_core::GraphEngine;
use pgq_durability::codec::{crc32, decode_tx};
use pgq_durability::wal::{self, parse_wal_name, wal_file, WalTail};
use pgq_durability::{MemDisk, Vfs};
use pgq_graph::props::Properties;
use pgq_graph::tx::Transaction;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// Every value kind the codec has, strings on both sides of the 14-byte
/// inline limit and multi-byte text among them.
fn every_value() -> Vec<(&'static str, Value)> {
    vec![
        ("b", Value::Bool(true)),
        ("i", Value::Int(-3)),
        ("f", Value::float(1.5)),
        ("s0", Value::str("")),
        ("s14", Value::str("fourteen bytes")),
        ("s15", Value::str("thirteen byteé")),
        ("s300", Value::str("x".repeat(300))),
        ("mb", Value::str("größe €😀")),
        ("n", Value::Node(VertexId(0))),
        ("r", Value::Rel(EdgeId(0))),
        (
            "xs",
            Value::list(vec![Value::Int(1), Value::str("a"), Value::Null]),
        ),
        ("m", Value::map([("k".to_string(), Value::Int(2))])),
        (
            "p",
            Value::path(PathValue::new(
                vec![VertexId(0), VertexId(1)],
                vec![EdgeId(0)],
            )),
        ),
    ]
}

/// The files of a durable engine after a view registration and three
/// commits that use every transaction op, and the name of its log.
fn small_log() -> (MemDisk, String) {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(0);
    engine
        .register_view(
            "en",
            "MATCH (p:Post)-[:REPLY]->(c) WHERE p.lang = 'en' RETURN p, c",
        )
        .unwrap();
    let mut tx = Transaction::new();
    let post = tx.create_vertex(
        [sym("Post")],
        Properties::from_iter([("lang", Value::str("en"))]),
    );
    let comm = tx.create_vertex([sym("Comm")], Properties::from_iter(every_value()));
    tx.create_edge(
        post,
        comm,
        sym("REPLY"),
        Properties::from_iter(every_value()),
    );
    engine.apply(&tx).unwrap();

    let (v, e) = (VertexId(0), EdgeId(0));
    let mut tx = Transaction::new();
    for (k, val) in every_value() {
        tx.set_vertex_prop(v, sym(k), val.clone());
        tx.set_edge_prop(e, sym(k), val);
    }
    tx.add_label(v, sym("Hot")).remove_label(v, sym("Hot"));
    engine.apply(&tx).unwrap();

    let mut tx = Transaction::new();
    tx.delete_edge(e).delete_vertex(VertexId(1), true);
    engine.apply(&tx).unwrap();
    drop(engine);

    let vfs = disk.vfs();
    let log = vfs
        .list()
        .unwrap()
        .into_iter()
        .filter_map(|n| parse_wal_name(&n))
        .max();
    (disk, wal_file(log.expect("a log exists")))
}

/// The byte ranges of each record's payload in `log`.
fn payloads(log: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos + 8, pos + 8 + len));
        pos += 8 + len;
    }
    out
}

/// `log` with byte `at` of the payload `start..end` XORed by `mask` and
/// that record's checksum patched to match.
fn mangled(log: &[u8], (start, end): (usize, usize), at: usize, mask: u8) -> Vec<u8> {
    let mut bytes = log.to_vec();
    bytes[at] ^= mask;
    let crc = crc32(&bytes[start..end]);
    bytes[start - 4..start].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// How far the mangled logs got through the readers.
#[derive(Default)]
struct Reached {
    decoded: usize,
    opened: usize,
    committed: usize,
}

/// Run `log` through every reader, beside the other files of `disk`;
/// `Err` carries a panic's message.
fn read_everywhere(
    disk: &MemDisk,
    name: &str,
    log: &[u8],
    reached: &mut Reached,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (records, tail) = wal::scan(log);
        assert_eq!(tail, WalTail::Clean, "every checksum was patched");
        if records.iter().all(|r| decode_tx(r).is_ok()) {
            reached.decoded += 1;
        }
        let copy = MemDisk::new();
        let (from, to) = (disk.vfs(), copy.vfs());
        for file in from.list().unwrap() {
            let bytes = if file == name {
                log.to_vec()
            } else {
                from.read(&file).unwrap().expect("listed")
            };
            to.write_atomic(&file, &bytes).unwrap();
        }
        if let Ok(mut engine) = GraphEngine::open_durable_with(Arc::new(to)) {
            reached.opened += 1;
            if engine.execute("CREATE (:Post {lang: 'en'})").is_ok() {
                reached.committed += 1;
            }
        }
    }))
    .map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => format!("{:?}", panic.downcast_ref::<&str>()),
    })
}

#[test]
fn a_hostile_log_under_valid_record_checksums_never_panics() {
    let (disk, name) = small_log();
    let log = disk.vfs().read(&name).unwrap().expect("listed");
    let records = payloads(&log);
    assert_eq!(records.len(), 3, "one record per commit");
    let mut reached = Reached::default();
    assert!(read_everywhere(&disk, &name, &log, &mut reached).is_ok());
    assert_eq!(
        (reached.decoded, reached.committed),
        (1, 1),
        "the log itself replays"
    );

    let mut reached = Reached::default();
    let (mut probes, mut panics) = (0, Vec::new());
    for &record in &records {
        for at in record.0..record.1 {
            for mask in [0x01, 0x80, 0xFF] {
                probes += 1;
                let bytes = mangled(&log, record, at, mask);
                if let Err(why) = read_everywhere(&disk, &name, &bytes, &mut reached) {
                    panics.push(format!("byte {at} ^ {mask:#04x}: {why}"));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {probes} mangled logs panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The sweep reached every reader, not only the decoder's refusals.
    eprintln!(
        "{probes} mangled logs: {} decoded, {} opened, {} committed",
        reached.decoded, reached.opened, reached.committed
    );
    assert!(reached.decoded * 4 >= probes, "{} decoded", reached.decoded);
    assert!(reached.opened * 4 >= probes, "{} opened", reached.opened);
    assert!(
        reached.committed * 4 >= probes,
        "{} committed",
        reached.committed
    );
}
