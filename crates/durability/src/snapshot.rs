//! Durable snapshots: the graph and the view catalog — what a recovery
//! cannot recompute.
//!
//! Layout (all little-endian, via [`crate::codec`]):
//!
//! ```text
//! [magic "PGQSNAP1": 8 bytes][crc32(body): u32][body]
//! ```
//!
//! The body carries, in order: the number of WAL records the snapshot
//! subsumes (`wal_records` — recovery replays only the log tail after
//! it), the exact id-allocation watermarks (so replayed creates allocate
//! the same ids the original process did), the full vertex/edge dump,
//! per-view registration metadata, and a list of operator-state
//! sections: consolidated output bags keyed by a node's **content-stable
//! plan fingerprint** (`pgq_algebra`'s fingerprints hash resolved
//! strings, so a different process computes the same keys).
//!
//! **The engine writes that list empty.** Operator memories are a
//! function of the graph and the view's plan; one registration pass
//! rebuilds them as fast as they would decode, while storing them made
//! every snapshot dump, encode and checksum the whole network. Recovery
//! registers each catalog view once and never looks at state sections,
//! so an image written before this (with the list filled) opens the
//! same way, and a filled list can only ever cost decode time. The
//! codec for it stays because [`Snapshot`] is also the interchange type
//! of the network's `dump_states` / `register_with_restore` pair, which
//! the benchmark's traced twin and the state audits still use.
//!
//! Snapshots are written with [`Vfs::write_atomic`] — after a crash the
//! file is either the previous snapshot or the new one, never torn.
//! The graph dump is load-bearing, which is why a snapshot that fails
//! its checksum loads as a hard [`SnapshotError`] at this layer;
//! [`crate::recovery`] turns that verdict into a
//! quarantine-and-fall-back rather than a fatal error.
//!
//! **One writer, one pass.** Both ways of producing a snapshot file go
//! through [`SnapshotWriter`]: [`crate::fold::write_image`] — the
//! engine's synchronous snapshot of its live graph, and every background
//! fold of the graph it replayed — streams graph rows and view metadata
//! *borrowed* from a `PropertyGraph` into one pre-sized buffer (no
//! intermediate [`Snapshot`] value, no per-row clones), and
//! [`Snapshot::encode`] feeds the same writer from an owned value. The
//! 12-byte header is reserved up front and the checksum patched in
//! place, so every output byte is produced exactly once. Cost model of
//! an image: O(graph) once — one sort of the id lists, one encode pass,
//! one slicing-by-8 CRC pass, one `write_atomic` — whatever the standing
//! views hold in memory.
//!
//! Snapshots are **generation-numbered**: generation `g`'s snapshot is
//! `snap.<g>` ([`snap_file`]) and anchors the replay of `wal.<g>` and
//! every later generation's log. Generation 0 is genesis — `snap.0`
//! never exists; recovery without any snapshot replays `wal.0` from an
//! empty graph.

use std::fmt;
use std::io;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_graph::props::Properties;
use pgq_graph::store::{EdgeData, GraphError, PropertyGraph, VertexData};

use crate::codec::{
    crc32, decode_props, decode_tuple, decode_view, encode_props, encode_symbol, encode_tuple,
    encode_view, CodecError, Decoder, Encoder,
};
use crate::vfs::Vfs;

/// File name of generation `generation`'s snapshot.
pub fn snap_file(generation: u64) -> String {
    format!("snap.{generation}")
}

/// Parse a `snap.<g>` file name back to its generation number.
pub fn parse_snap_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap.")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

const MAGIC: &[u8; 8] = b"PGQSNAP1";
/// Magic plus the body checksum.
const HEADER_LEN: usize = 12;

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The body does not match its checksum.
    BadChecksum,
    /// The body bytes do not decode (version skew or corruption the
    /// checksum happened to miss).
    Codec(CodecError),
    /// The decoded graph dump was internally inconsistent (a repeated
    /// vertex or edge row, an edge referencing a missing endpoint, or an
    /// id or watermark that leaves no next id).
    Graph(GraphError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::BadMagic => write!(f, "snapshot has wrong magic"),
            SnapshotError::BadChecksum => write!(f, "snapshot failed checksum"),
            SnapshotError::Codec(e) => write!(f, "snapshot decode: {e}"),
            SnapshotError::Graph(e) => write!(f, "snapshot graph dump: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// One standing view's catalog row: enough for the engine to register it
/// again from its text in its original slot. The codec keeps the bytes
/// of retired per-view options in the row's layout
/// (`codec::decode_view`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotView {
    /// Original slot index in the engine's view table (view ids must
    /// survive recovery).
    pub slot: u32,
    /// View name.
    pub name: String,
    /// Original query text.
    pub query: String,
}

/// A consolidated operator-state bag: distinct tuples with non-zero
/// signed multiplicities.
pub(crate) type StateBag = Vec<(Tuple, i64)>;

/// Everything a snapshot persists.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Number of leading WAL records whose effects this snapshot already
    /// contains; recovery replays only records after these.
    pub wal_records: u64,
    /// Exact vertex-id allocation watermark.
    pub next_vertex: u64,
    /// Exact edge-id allocation watermark.
    pub next_edge: u64,
    /// Vertex dump: id, labels, properties.
    pub vertices: Vec<(VertexId, Vec<Symbol>, Properties)>,
    /// Edge dump: id, src, dst, type, properties.
    pub edges: Vec<(EdgeId, VertexId, VertexId, Symbol, Properties)>,
    /// Standing views to re-register.
    pub views: Vec<SnapshotView>,
    /// Operator state keyed by content-stable plan fingerprint plus a
    /// second, domain-separated check hash — the snapshot's stand-in
    /// for the plan-equality confirmation in-process hash-consing
    /// performs before sharing state. Empty in every image the engine
    /// writes, and never read by its recovery.
    pub states: Vec<(u64, u64, StateBag)>,
}

impl Snapshot {
    /// Capture `g`'s contents (dump + watermarks) into a fresh snapshot;
    /// views (and, for a state dump, operator states) are filled in by
    /// the caller.
    pub fn capture_graph(g: &PropertyGraph) -> Snapshot {
        let (next_vertex, next_edge) = g.id_watermarks();
        // Deterministic dump order: see [`SnapshotWriter::new`].
        let mut vertices: Vec<_> = g
            .vertices()
            .map(|(id, data)| (id, data.labels.clone(), data.props.clone()))
            .collect();
        vertices.sort_unstable_by_key(|(id, _, _)| *id);
        let mut edges: Vec<_> = g
            .edges()
            .map(|(id, data)| (id, data.src, data.dst, data.ty, data.props.clone()))
            .collect();
        edges.sort_unstable_by_key(|(id, _, _, _, _)| *id);
        Snapshot {
            wal_records: 0,
            next_vertex,
            next_edge,
            vertices,
            edges,
            views: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Rebuild a graph from the dump. Catalog hooks run per insert, so
    /// the recovered cardinality catalog matches a live-built one and
    /// re-planning reproduces the original physical plans. A dump whose
    /// checksum holds but which repeats a row, names a missing endpoint,
    /// or holds an id or watermark at `u64::MAX` (no next id to
    /// allocate) is a [`SnapshotError::Graph`].
    pub fn restore_graph(&self) -> Result<PropertyGraph, SnapshotError> {
        let ids = self.vertices.iter().map(|v| v.0 .0);
        let mut ids = ids.chain(self.edges.iter().map(|e| e.0 .0));
        if self.next_vertex == u64::MAX
            || self.next_edge == u64::MAX
            || ids.any(|id| id == u64::MAX)
        {
            let e = GraphError::Invalid("an id or watermark exhausts the id space".into());
            return Err(SnapshotError::Graph(e));
        }
        let mut g = PropertyGraph::new();
        for (id, labels, props) in &self.vertices {
            g.load_vertex(*id, labels.iter().copied(), props.clone())
                .map_err(SnapshotError::Graph)?;
        }
        for (id, src, dst, ty, props) in &self.edges {
            g.load_edge(*id, *src, *dst, *ty, props.clone())
                .map_err(SnapshotError::Graph)?;
        }
        g.set_id_watermarks(self.next_vertex, self.next_edge);
        Ok(g)
    }

    /// Serialize to the on-disk format (magic + checksum + body),
    /// through the same [`SnapshotWriter`] every image the engine writes
    /// streams into.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::begin(0, self.wal_records, self.next_vertex, self.next_edge);
        w.vertices(
            self.vertices
                .iter()
                .map(|(id, labels, props)| (*id, labels.as_slice(), props)),
        );
        w.edges(
            self.edges
                .iter()
                .map(|(id, src, dst, ty, props)| (*id, *src, *dst, *ty, props)),
        );
        w.views(&self.views);
        w.states(
            self.states
                .iter()
                .map(|(fp, check, bag)| (*fp, *check, bag.as_slice())),
        );
        w.finish()
    }

    /// Decode the on-disk format, validating magic and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN || &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let want = u32::from_le_bytes(bytes[MAGIC.len()..HEADER_LEN].try_into().unwrap());
        let body = &bytes[HEADER_LEN..];
        if crc32(body) != want {
            return Err(SnapshotError::BadChecksum);
        }

        let mut d = Decoder::new(body);
        let wal_records = d.u64()?;
        let next_vertex = d.u64()?;
        let next_edge = d.u64()?;

        let nv = d.read_len()?;
        let mut vertices = Vec::with_capacity(nv);
        for _ in 0..nv {
            let id = VertexId(d.u64()?);
            let nl = d.read_len()?;
            let mut labels = Vec::with_capacity(nl);
            for _ in 0..nl {
                labels.push(d.symbol()?);
            }
            vertices.push((id, labels, decode_props(&mut d)?));
        }

        let ne = d.read_len()?;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            let id = EdgeId(d.u64()?);
            let src = VertexId(d.u64()?);
            let dst = VertexId(d.u64()?);
            let ty = d.symbol()?;
            edges.push((id, src, dst, ty, decode_props(&mut d)?));
        }

        let nw = d.read_len()?;
        let mut views = Vec::with_capacity(nw);
        for _ in 0..nw {
            views.push(decode_view(&mut d)?);
        }

        let ns = d.read_len()?;
        let mut states = Vec::with_capacity(ns);
        for _ in 0..ns {
            let fp = d.u64()?;
            let check = d.u64()?;
            let nb = d.read_len()?;
            let mut bag = Vec::with_capacity(nb);
            for _ in 0..nb {
                let t = decode_tuple(&mut d)?;
                bag.push((t, d.i64()?));
            }
            states.push((fp, check, bag));
        }

        d.finish().map_err(SnapshotError::Codec)?;
        Ok(Snapshot {
            wal_records,
            next_vertex,
            next_edge,
            vertices,
            edges,
            views,
            states,
        })
    }

    /// Atomically persist as generation `generation`'s snapshot.
    pub fn write(&self, vfs: &dyn Vfs, generation: u64) -> io::Result<()> {
        vfs.write_atomic(&snap_file(generation), &self.encode())
    }

    /// Load generation `generation`'s snapshot, if one exists.
    /// Corruption is an error, not a silent empty snapshot: the graph
    /// dump is load-bearing, and the caller ([`crate::recovery`])
    /// decides between quarantine-and-fall-back and reporting.
    pub fn load(vfs: &dyn Vfs, generation: u64) -> Result<Option<Snapshot>, SnapshotError> {
        match vfs.read(&snap_file(generation))? {
            None => Ok(None),
            Some(bytes) => Snapshot::decode(&bytes).map(Some),
        }
    }
}

/// The sections of a snapshot body, in file order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Section {
    Vertices,
    Edges,
    Views,
    States,
    Done,
}

/// Streaming encoder of the snapshot file format — the only code that
/// knows the byte layout on the write side.
///
/// Inputs are borrowed and every section is written straight into one
/// buffer whose header (magic + checksum slot) is reserved up front;
/// [`SnapshotWriter::finish`] patches the checksum in place. Sections
/// must be written in file order — graph, then
/// [`views`](SnapshotWriter::views), then
/// [`states`](SnapshotWriter::states) — and a misordered call panics
/// rather than produce a file that fails to decode.
pub struct SnapshotWriter {
    e: Encoder,
    next: Section,
}

impl SnapshotWriter {
    fn begin(capacity: usize, wal_records: u64, next_vertex: u64, next_edge: u64) -> Self {
        let mut e = Encoder::with_capacity(capacity.max(HEADER_LEN + 24));
        e.memoize_symbols();
        e.raw(MAGIC);
        e.u32(0); // checksum slot, patched by `finish`
        e.u64(wal_records);
        e.u64(next_vertex);
        e.u64(next_edge);
        SnapshotWriter {
            e,
            next: Section::Vertices,
        }
    }

    fn enter(&mut self, section: Section, then: Section) {
        assert_eq!(self.next, section, "snapshot sections out of file order");
        self.next = then;
    }

    /// Start a snapshot of `g`: header, id watermarks and the full
    /// vertex/edge dump in ascending id order (deterministic — the id
    /// maps iterate in hash order — and it lets the loader insert edges
    /// after both endpoints without a fixpoint). `capacity` pre-sizes
    /// the buffer (the previous snapshot's size is a good hint);
    /// `wal_records` is the number of leading log records the snapshot
    /// subsumes.
    pub fn new(capacity: usize, wal_records: u64, g: &PropertyGraph) -> SnapshotWriter {
        let (next_vertex, next_edge) = g.id_watermarks();
        let mut w = SnapshotWriter::begin(capacity, wal_records, next_vertex, next_edge);
        let mut vertices: Vec<(VertexId, &VertexData)> = g.vertices().collect();
        vertices.sort_unstable_by_key(|(id, _)| *id);
        w.vertices(
            vertices
                .into_iter()
                .map(|(id, d)| (id, d.labels.as_slice(), &d.props)),
        );
        let mut edges: Vec<(EdgeId, &EdgeData)> = g.edges().collect();
        edges.sort_unstable_by_key(|(id, _)| *id);
        w.edges(
            edges
                .into_iter()
                .map(|(id, d)| (id, d.src, d.dst, d.ty, &d.props)),
        );
        w
    }

    fn vertices<'a>(
        &mut self,
        rows: impl ExactSizeIterator<Item = (VertexId, &'a [Symbol], &'a Properties)>,
    ) {
        self.enter(Section::Vertices, Section::Edges);
        let e = &mut self.e;
        e.len(rows.len());
        for (id, labels, props) in rows {
            e.u64(id.0);
            e.len(labels.len());
            for &l in labels {
                encode_symbol(e, l);
            }
            encode_props(e, props);
        }
    }

    fn edges<'a>(
        &mut self,
        rows: impl ExactSizeIterator<Item = (EdgeId, VertexId, VertexId, Symbol, &'a Properties)>,
    ) {
        self.enter(Section::Edges, Section::Views);
        let e = &mut self.e;
        e.len(rows.len());
        for (id, src, dst, ty, props) in rows {
            e.u64(id.0);
            e.u64(src.0);
            e.u64(dst.0);
            encode_symbol(e, ty);
            encode_props(e, props);
        }
    }

    /// Write the standing views' registration metadata.
    pub fn views(&mut self, views: &[SnapshotView]) {
        self.enter(Section::Views, Section::States);
        let e = &mut self.e;
        e.len(views.len());
        for v in views {
            encode_view(e, v);
        }
    }

    /// Write the operator-state sections: one `(fingerprint, check,
    /// bag)` entry per dumped network node, bags borrowed from the
    /// network's state dump. The images the engine writes pass none.
    pub fn states<'a>(
        &mut self,
        states: impl ExactSizeIterator<Item = (u64, u64, &'a [(Tuple, i64)])>,
    ) {
        self.enter(Section::States, Section::Done);
        let e = &mut self.e;
        e.len(states.len());
        for (fp, check, bag) in states {
            e.u64(fp);
            e.u64(check);
            e.len(bag.len());
            for (t, m) in bag {
                encode_tuple(e, t);
                e.i64(*m);
            }
        }
    }

    /// Checksum the body, patch the header, and yield the file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.enter(Section::Done, Section::Done);
        let mut out = self.e.into_bytes();
        let crc = crc32(&out[HEADER_LEN..]);
        out[MAGIC.len()..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemDisk;
    use pgq_common::value::Value;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn sample_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();
        // Burn an id so the watermark outruns max(id)+1.
        let (c, _) = g.add_vertex([sym("Comm")], Properties::new());
        let mut tx = pgq_graph::tx::Transaction::new();
        tx.delete_vertex(c, true);
        g.apply(&tx).unwrap();
        g
    }

    #[test]
    fn graph_capture_restore_roundtrips_including_watermarks() {
        let g = sample_graph();
        let snap = Snapshot::capture_graph(&g);
        let g2 = snap.restore_graph().unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        // Watermarks restore exactly, not as max(id)+1.
        assert_eq!(g2.id_watermarks(), g.id_watermarks());
        let snap2 = Snapshot::capture_graph(&g2);
        assert_eq!(
            format!("{:?}", snap.vertices),
            format!("{:?}", snap2.vertices)
        );
        assert_eq!(format!("{:?}", snap.edges), format!("{:?}", snap2.edges));
    }

    #[test]
    fn full_snapshot_roundtrips_through_disk() {
        let mut snap = Snapshot::capture_graph(&sample_graph());
        snap.wal_records = 17;
        snap.views.push(SnapshotView {
            slot: 2,
            name: "v".into(),
            query: "MATCH (n) RETURN n".into(),
        });
        snap.states.push((
            0xDEAD_BEEF,
            0xFACE_FEED,
            vec![(Tuple::new(vec![Value::Int(1), Value::str("x")]), -3)],
        ));

        let disk = MemDisk::new();
        snap.write(&disk.vfs(), 1).unwrap();
        assert_eq!(disk.file_names(), vec!["snap.1".to_string()]);
        let back = Snapshot::load(&disk.vfs(), 1).unwrap().unwrap();
        assert_eq!(back.wal_records, 17);
        assert_eq!(back.views, snap.views);
        assert_eq!(back.states.len(), 1);
        assert_eq!(back.states[0].0, 0xDEAD_BEEF);
        assert_eq!(back.states[0].1, 0xFACE_FEED);
        assert_eq!(back.states[0].2, snap.states[0].2);
        assert_eq!(back.vertices.len(), snap.vertices.len());
    }

    #[test]
    fn repeated_row_under_a_valid_checksum_fails_to_restore() {
        let good = Snapshot::capture_graph(&sample_graph());
        let mut twice_v = good.clone();
        twice_v.vertices.push(good.vertices[0].clone());
        let mut twice_e = good.clone();
        twice_e.edges.push(good.edges[0].clone());
        for (bad, what) in [(twice_v, "vertex"), (twice_e, "edge")] {
            // `encode` checksums whatever it is given, so the image
            // decodes; only the restore can see the repeat.
            let back = Snapshot::decode(&bad.encode()).unwrap();
            match back.restore_graph() {
                Err(SnapshotError::Graph(e)) => {
                    assert!(e.to_string().contains("already exists"), "{what}: {e}")
                }
                other => panic!("{what} row repeated: {:?}", other.map(|g| g.vertex_count())),
            }
        }
    }

    #[test]
    fn missing_snapshot_is_none() {
        assert!(Snapshot::load(&MemDisk::new().vfs(), 0).unwrap().is_none());
        assert!(Snapshot::load(&MemDisk::new().vfs(), 7).unwrap().is_none());
    }

    #[test]
    fn snap_names_roundtrip() {
        assert_eq!(snap_file(3), "snap.3");
        assert_eq!(parse_snap_name("snap.3"), Some(3));
        assert_eq!(parse_snap_name("snap."), None);
        assert_eq!(parse_snap_name("snap.3x"), None);
        assert_eq!(parse_snap_name("wal.3"), None);
        assert_eq!(parse_snap_name("snap.3.quarantined"), None);
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_cold_start() {
        let snap = Snapshot::capture_graph(&sample_graph());
        let disk = MemDisk::new();
        snap.write(&disk.vfs(), 2).unwrap();
        assert!(disk.corrupt(&snap_file(2), 20, 0x01));
        assert!(matches!(
            Snapshot::load(&disk.vfs(), 2),
            Err(SnapshotError::BadChecksum)
        ));
        // Magic damage is reported distinctly.
        let disk2 = MemDisk::new();
        snap.write(&disk2.vfs(), 2).unwrap();
        disk2.corrupt(&snap_file(2), 0, 0xFF);
        assert!(matches!(
            Snapshot::load(&disk2.vfs(), 2),
            Err(SnapshotError::BadMagic)
        ));
    }
}
