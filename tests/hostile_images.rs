//! Images whose checksum holds but whose content is hostile. A flipped
//! byte under a stale checksum never reaches the parser
//! (`Snapshot::decode` checks the CRC first), so every body byte of a
//! small image is XORed with a mask and the checksum patched to match.
//! Each mangled image then goes through every reader in turn —
//! `Snapshot::decode`, `restore_graph`, `GraphEngine::open_durable_with`
//! and one commit on the engine that opened — and each must return `Ok`
//! or a typed error: a panic or an abort (a huge allocation included)
//! fails the sweep. Values no single flip reaches — ids and watermarks
//! at `u64::MAX`, extreme slots and option bytes — are encoded directly
//! and go through the same readers. The byte of the retired schema mode
//! is patched in place: 1, which older builds wrote, opens as the
//! inferred view; anything above is a typed error.

mod durability_script;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pgq_algebra::plan::WcojMode;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_core::GraphEngine;
use pgq_durability::codec::{crc32, CodecError};
use pgq_durability::snapshot::{snap_file, SnapshotError};
use pgq_durability::{MemDisk, Snapshot, Vfs};
use pgq_ivm::RegisterOptions;

/// Magic plus checksum: the body starts here.
const HEADER_LEN: usize = 12;

/// The second view of [`small_image`]: it reads properties of both
/// endpoints, which the retired schema mode read from carried maps.
const REPLIES: &str = "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c, c.lang";

/// A small image: every value kind the codec has, an edge with a
/// property, and two catalog rows with different options.
fn small_image() -> Vec<u8> {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(0);
    engine
        .register_view("en", "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        .unwrap();
    let register = RegisterOptions {
        plan: false,
        wcoj: WcojMode::Disabled,
        wcoj_sorted: Some(true),
    };
    engine
        .register_view_with("replies", REPLIES, register)
        .unwrap();
    engine
        .execute(
            "CREATE (:Post {lang: 'en', n: -3, f: 1.5, ok: true, xs: [1, 'a', null], m: {k: 2}})\
             -[:REPLY {w: 2}]->(:Comm:Hot {lang: 'de'})",
        )
        .unwrap();
    engine.snapshot().unwrap();
    durability_script::newest_snapshot_bytes(&disk)
}

/// `image` with body byte `at` XORed by `mask` and the checksum
/// patched to match.
fn mangled(image: &[u8], at: usize, mask: u8) -> Vec<u8> {
    let mut bytes = image.to_vec();
    bytes[at] ^= mask;
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// How far the mangled images got through the readers.
#[derive(Default)]
struct Reached {
    decoded: usize,
    restored: usize,
    opened: usize,
}

/// Run `bytes` through every reader; `Err` carries a panic's message.
fn read_everywhere(bytes: &[u8], reached: &mut Reached) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Ok(snap) = Snapshot::decode(bytes) {
            reached.decoded += 1;
            if snap.restore_graph().is_ok() {
                reached.restored += 1;
            }
        }
        let disk = MemDisk::new();
        disk.vfs().write_atomic(&snap_file(1), bytes).unwrap();
        if let Ok(mut engine) = GraphEngine::open_durable_with(Arc::new(disk.vfs())) {
            reached.opened += 1;
            let _ = engine.execute("CREATE (:Post {lang: 'en'})");
        }
    }))
    .map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => format!("{:?}", panic.downcast_ref::<&str>()),
    })
}

#[test]
fn a_hostile_image_under_a_valid_checksum_never_panics() {
    let image = small_image();
    assert!(image.len() < 1024, "the image is {} bytes", image.len());
    let mut reached = Reached::default();
    let mut panics = Vec::new();
    for at in HEADER_LEN..image.len() {
        for mask in [0x01, 0x80, 0xFF] {
            if let Err(why) = read_everywhere(&mangled(&image, at, mask), &mut reached) {
                panics.push(format!("byte {at} ^ {mask:#04x}: {why}"));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} mangled images panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The sweep reached every reader, not only the decoder's refusals.
    let probes = 3 * (image.len() - HEADER_LEN);
    eprintln!(
        "{probes} mangled images: {} decoded, {} restored, {} opened",
        reached.decoded, reached.restored, reached.opened
    );
    assert!(reached.decoded * 4 >= probes, "{} decoded", reached.decoded);
    assert!(
        reached.restored * 4 >= probes,
        "{} restored",
        reached.restored
    );
    assert!(reached.opened * 4 >= probes, "{} opened", reached.opened);
}

#[test]
fn extreme_ids_watermarks_and_catalog_rows_never_panic() {
    let good = Snapshot::decode(&small_image()).unwrap();
    let mut cases: Vec<(&str, Snapshot)> = Vec::new();
    let mut s = good.clone();
    s.vertices[0].0 = VertexId(u64::MAX);
    s.edges.clear();
    cases.push(("vertex id u64::MAX", s));
    let mut s = good.clone();
    s.edges[0].0 = EdgeId(u64::MAX);
    cases.push(("edge id u64::MAX", s));
    let mut s = good.clone();
    (s.next_vertex, s.next_edge) = (u64::MAX, u64::MAX);
    cases.push(("watermarks u64::MAX", s));
    let mut s = good.clone();
    s.wal_records = u64::MAX;
    cases.push(("skip count u64::MAX", s));
    for (what, slot) in [("slot u32::MAX", u32::MAX), ("repeated slot", 0)] {
        let mut s = good.clone();
        s.views[1].slot = slot;
        cases.push((what, s));
    }
    for mode in [2, 3, 0xFF] {
        let mut s = good.clone();
        for v in &mut s.views {
            (v.wcoj_mode, v.plan) = (mode, !v.plan);
        }
        cases.push(("option bytes", s));
    }
    let mut s = good.clone();
    s.views[0].name = s.views[1].name.clone();
    cases.push(("repeated view name", s));
    let mut s = good;
    s.views[0].query = "MATCH (p) RETURN p ORDER BY p".into();
    cases.push(("unmaintainable query", s));

    let mut reached = Reached::default();
    let mut panics = Vec::new();
    for (what, snap) in cases {
        if let Err(why) = read_everywhere(&snap.encode(), &mut reached) {
            panics.push(format!("{what}: {why}"));
        }
    }
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}

/// Where [`REPLIES`]' catalog row keeps the retired schema-mode byte:
/// right after its query text.
fn schema_byte(image: &[u8]) -> usize {
    let query = REPLIES.as_bytes();
    let at = image
        .windows(query.len())
        .position(|w| w == query)
        .expect("the image holds the view's text");
    at + query.len()
}

#[test]
fn the_retired_schema_byte_opens_at_one_and_is_refused_above() {
    let image = small_image();
    let at = schema_byte(&image);
    // Rows are written with 0, so each mask `mangled` XORs in below is
    // the byte the row then holds.
    assert_eq!(image[at], 0);

    // 1: the row of a view an older build registered under the
    // carry-maps flattening. It opens, flattened by schema inference,
    // with the rows a fresh registration of its text gives.
    let one = mangled(&image, at, 1);
    let snap = Snapshot::decode(&one).unwrap();
    assert_eq!(snap.views[1].query, REPLIES);
    let disk = MemDisk::new();
    disk.vfs().write_atomic(&snap_file(1), &one).unwrap();
    let opened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    let mut fresh = GraphEngine::from_graph(snap.restore_graph().unwrap());
    let fresh_id = fresh.register_view("replies", REPLIES).unwrap();
    // The image holds one reply, so each side has one row.
    let replies = opened.view_by_name("replies").unwrap();
    let recovered = opened.view_results(replies).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered, fresh.view_results(fresh_id).unwrap());

    // Above 1: a typed error on the decoder, and no reader panics.
    for byte in [2, 0xFF] {
        let bad = mangled(&image, at, byte);
        assert!(
            matches!(
                Snapshot::decode(&bad),
                Err(SnapshotError::Codec(CodecError::BadTag("schema-mode", b))) if b == byte
            ),
            "schema byte {byte:#04x}"
        );
        let mut reached = Reached::default();
        read_everywhere(&bad, &mut reached).unwrap();
        assert_eq!(reached.decoded, 0, "schema byte {byte:#04x}");
    }
}
