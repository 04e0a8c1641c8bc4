//! Hand-rolled binary codec for durable records.
//!
//! A small, explicit little-endian format — no external serialization
//! crates (offline shim rule), no reflection. Every durable structure
//! (values, property maps, transaction ops, view-catalog rows and
//! changes, operator-state tuples) has a matching `encode_*`/`decode_*`
//! pair here, and the WAL/snapshot layers only ever frame byte blobs
//! produced by this module.
//!
//! Two invariants the recovery path depends on:
//!
//! - **Symbols encode as their resolved strings**, never as intern ids.
//!   Intern ids are interning-order artifacts of one process; a recovered
//!   process re-interns the strings and gets its own ids.
//! - **Decoding never panics.** Every read is bounds-checked and every
//!   tag validated, returning [`CodecError`]; recovery treats a decode
//!   failure like a checksum failure (stop cleanly, fall back).

use std::fmt;
use std::sync::Arc;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::ordf::OrdF64;
use pgq_common::path::PathValue;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::tx::{NodeRef, Transaction, TxOp};

use crate::snapshot::SnapshotView;

/// Decode failure. Carries enough to say *what* was malformed without
/// retaining any of the (possibly corrupt) input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Input ended before the value being decoded was complete.
    Eof,
    /// Unknown tag byte for the named type.
    BadTag(&'static str, u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A path whose vertex count is not its edge count plus one.
    BadPath,
    /// Bytes remained after the top-level value (framing bug upstream).
    Trailing,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::BadTag(what, tag) => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string payload"),
            CodecError::BadPath => write!(f, "path does not alternate vertex, edge, vertex"),
            CodecError::Trailing => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Slicing-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the
/// classic bytewise table; `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, which lets eight input bytes be
/// folded with eight independent loads instead of a dependent chain.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32fast` convention),
/// hand-rolled so the WAL needs no external checksum crate. Table-driven
/// slicing-by-8: eight bytes per step, a bytewise tail for the last
/// `len % 8` — every image checksums megabytes and recovery verifies
/// them again.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Little-endian byte-buffer writer.
#[derive(Default)]
pub(crate) struct Encoder {
    buf: Vec<u8>,
    /// Per-encoder symbol → string memo (see [`Encoder::memoize_symbols`]).
    symbols: Option<Vec<Option<Arc<str>>>>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub(crate) fn new() -> Encoder {
        Encoder::default()
    }

    /// Empty encoder with room for `n` bytes (a writer that knows its
    /// output size up front never regrows or recopies the buffer).
    pub(crate) fn with_capacity(n: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(n),
            symbols: None,
        }
    }

    /// Resolve each distinct symbol through the global interner (a
    /// lock acquisition) once and serve repeats from a private table.
    /// For bulk encodes — a snapshot names the same few labels, types
    /// and keys tens of thousands of times; a WAL record names a
    /// handful once and is better off without the table.
    pub(crate) fn memoize_symbols(&mut self) {
        self.symbols = Some(Vec::new());
    }

    /// Finish, yielding the encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes, unframed (file magics).
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write one byte.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian two's complement.
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a collection length (`u32`).
    pub(crate) fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Write a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        write_str(&mut self.buf, s);
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
pub(crate) struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Read from `buf` starting at offset 0.
    pub(crate) fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the input was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1).
    pub(crate) fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag("bool", t)),
        }
    }

    /// Read a `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub(crate) fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a collection length, refusing lengths that cannot fit in the
    /// remaining input (defense against corrupt prefixes: no huge
    /// preallocations, no long bogus loops).
    pub(crate) fn read_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::Eof);
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let n = self.read_len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a symbol (stored as its resolved string; re-interned here).
    pub(crate) fn symbol(&mut self) -> Result<Symbol, CodecError> {
        Ok(Symbol::intern(self.str_ref()?))
    }
}

/// Encode a symbol as its resolved string.
pub(crate) fn encode_symbol(e: &mut Encoder, s: Symbol) {
    let Some(memo) = e.symbols.as_mut() else {
        return s.with_str(|str| e.str(str));
    };
    let ix = s.index() as usize;
    if memo.len() <= ix {
        memo.resize(ix + 1, None);
    }
    write_str(&mut e.buf, memo[ix].get_or_insert_with(|| s.resolve()));
}

// Value tags.
const V_NULL: u8 = 0;
const V_BOOL: u8 = 1;
const V_INT: u8 = 2;
const V_FLOAT: u8 = 3;
const V_STR: u8 = 4;
const V_NODE: u8 = 5;
const V_REL: u8 = 6;
const V_LIST: u8 = 7;
const V_MAP: u8 = 8;
const V_PATH: u8 = 9;

/// Encode a [`Value`] (tagged, recursive).
pub(crate) fn encode_value(e: &mut Encoder, v: &Value) {
    match v {
        Value::Null => e.u8(V_NULL),
        Value::Bool(b) => {
            e.u8(V_BOOL);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(V_INT);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(V_FLOAT);
            e.u64(f.get().to_bits());
        }
        Value::Str(s) => {
            e.u8(V_STR);
            e.str(s);
        }
        Value::Node(v) => {
            e.u8(V_NODE);
            e.u64(v.0);
        }
        Value::Rel(r) => {
            e.u8(V_REL);
            e.u64(r.0);
        }
        Value::List(items) => {
            e.u8(V_LIST);
            e.len(items.len());
            for item in items.iter() {
                encode_value(e, item);
            }
        }
        Value::Map(m) => {
            e.u8(V_MAP);
            e.len(m.len());
            for (k, v) in m.iter() {
                e.str(k);
                encode_value(e, v);
            }
        }
        Value::Path(p) => {
            e.u8(V_PATH);
            e.len(p.vertices().len());
            for v in p.vertices() {
                e.u64(v.0);
            }
            e.len(p.edges().len());
            for ed in p.edges() {
                e.u64(ed.0);
            }
        }
    }
}

/// Decode a [`Value`].
pub(crate) fn decode_value(d: &mut Decoder<'_>) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        V_NULL => Value::Null,
        V_BOOL => Value::Bool(d.bool()?),
        V_INT => Value::Int(d.i64()?),
        V_FLOAT => Value::Float(OrdF64(f64::from_bits(d.u64()?))),
        V_STR => Value::str(d.str_ref()?),
        V_NODE => Value::Node(VertexId(d.u64()?)),
        V_REL => Value::Rel(EdgeId(d.u64()?)),
        V_LIST => {
            let n = d.read_len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(d)?);
            }
            Value::list(items)
        }
        V_MAP => {
            let n = d.read_len()?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let k = d.str()?;
                entries.push((k, decode_value(d)?));
            }
            Value::map(entries)
        }
        V_PATH => {
            let nv = d.read_len()?;
            let mut vertices = Vec::with_capacity(nv);
            for _ in 0..nv {
                vertices.push(VertexId(d.u64()?));
            }
            let ne = d.read_len()?;
            let mut edges = Vec::with_capacity(ne);
            for _ in 0..ne {
                edges.push(EdgeId(d.u64()?));
            }
            if nv != ne + 1 {
                return Err(CodecError::BadPath);
            }
            Value::path(PathValue::new(vertices, edges))
        }
        t => return Err(CodecError::BadTag("value", t)),
    })
}

/// Encode a property map as `(key-string, value)` pairs.
pub(crate) fn encode_props(e: &mut Encoder, p: &Properties) {
    e.len(p.len());
    for (k, v) in p.iter() {
        encode_symbol(e, k);
        encode_value(e, v);
    }
}

/// Decode a property map.
pub(crate) fn decode_props(d: &mut Decoder<'_>) -> Result<Properties, CodecError> {
    let n = d.read_len()?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.symbol()?;
        pairs.push((k, decode_value(d)?));
    }
    Ok(Properties::from_iter(pairs))
}

/// Encode a tuple as a value vector.
pub(crate) fn encode_tuple(e: &mut Encoder, t: &Tuple) {
    e.len(t.arity());
    for v in t.values() {
        encode_value(e, v);
    }
}

/// Decode a tuple.
pub(crate) fn decode_tuple(d: &mut Decoder<'_>) -> Result<Tuple, CodecError> {
    let n = d.read_len()?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(decode_value(d)?);
    }
    Ok(Tuple::new(vals))
}

// NodeRef tags.
const NR_EXISTING: u8 = 0;
const NR_NEW: u8 = 1;

fn encode_node_ref(e: &mut Encoder, r: NodeRef) {
    match r {
        NodeRef::Existing(v) => {
            e.u8(NR_EXISTING);
            e.u64(v.0);
        }
        NodeRef::New(i) => {
            e.u8(NR_NEW);
            e.u64(i as u64);
        }
    }
}

fn decode_node_ref(d: &mut Decoder<'_>) -> Result<NodeRef, CodecError> {
    Ok(match d.u8()? {
        NR_EXISTING => NodeRef::Existing(VertexId(d.u64()?)),
        NR_NEW => NodeRef::New(d.u64()? as usize),
        t => return Err(CodecError::BadTag("node-ref", t)),
    })
}

// TxOp tags.
const OP_CREATE_VERTEX: u8 = 0;
const OP_CREATE_EDGE: u8 = 1;
const OP_DELETE_VERTEX: u8 = 2;
const OP_DELETE_EDGE: u8 = 3;
const OP_SET_VPROP: u8 = 4;
const OP_SET_EPROP: u8 = 5;
const OP_ADD_LABEL: u8 = 6;
const OP_REMOVE_LABEL: u8 = 7;

fn encode_op(e: &mut Encoder, op: &TxOp) {
    match op {
        TxOp::CreateVertex { labels, props } => {
            e.u8(OP_CREATE_VERTEX);
            e.len(labels.len());
            for &l in labels {
                encode_symbol(e, l);
            }
            encode_props(e, props);
        }
        TxOp::CreateEdge {
            src,
            dst,
            ty,
            props,
        } => {
            e.u8(OP_CREATE_EDGE);
            encode_node_ref(e, *src);
            encode_node_ref(e, *dst);
            encode_symbol(e, *ty);
            encode_props(e, props);
        }
        TxOp::DeleteVertex { id, detach } => {
            e.u8(OP_DELETE_VERTEX);
            e.u64(id.0);
            e.bool(*detach);
        }
        TxOp::DeleteEdge { id } => {
            e.u8(OP_DELETE_EDGE);
            e.u64(id.0);
        }
        TxOp::SetVertexProp { id, key, value } => {
            e.u8(OP_SET_VPROP);
            encode_node_ref(e, *id);
            encode_symbol(e, *key);
            encode_value(e, value);
        }
        TxOp::SetEdgeProp { id, key, value } => {
            e.u8(OP_SET_EPROP);
            e.u64(id.0);
            encode_symbol(e, *key);
            encode_value(e, value);
        }
        TxOp::AddLabel { id, label } => {
            e.u8(OP_ADD_LABEL);
            encode_node_ref(e, *id);
            encode_symbol(e, *label);
        }
        TxOp::RemoveLabel { id, label } => {
            e.u8(OP_REMOVE_LABEL);
            encode_node_ref(e, *id);
            encode_symbol(e, *label);
        }
    }
}

fn decode_op(d: &mut Decoder<'_>) -> Result<TxOp, CodecError> {
    Ok(match d.u8()? {
        OP_CREATE_VERTEX => {
            let n = d.read_len()?;
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(d.symbol()?);
            }
            TxOp::CreateVertex {
                labels,
                props: decode_props(d)?,
            }
        }
        OP_CREATE_EDGE => TxOp::CreateEdge {
            src: decode_node_ref(d)?,
            dst: decode_node_ref(d)?,
            ty: d.symbol()?,
            props: decode_props(d)?,
        },
        OP_DELETE_VERTEX => TxOp::DeleteVertex {
            id: VertexId(d.u64()?),
            detach: d.bool()?,
        },
        OP_DELETE_EDGE => TxOp::DeleteEdge {
            id: EdgeId(d.u64()?),
        },
        OP_SET_VPROP => TxOp::SetVertexProp {
            id: decode_node_ref(d)?,
            key: d.symbol()?,
            value: decode_value(d)?,
        },
        OP_SET_EPROP => TxOp::SetEdgeProp {
            id: EdgeId(d.u64()?),
            key: d.symbol()?,
            value: decode_value(d)?,
        },
        OP_ADD_LABEL => TxOp::AddLabel {
            id: decode_node_ref(d)?,
            label: d.symbol()?,
        },
        OP_REMOVE_LABEL => TxOp::RemoveLabel {
            id: decode_node_ref(d)?,
            label: d.symbol()?,
        },
        t => return Err(CodecError::BadTag("tx-op", t)),
    })
}

/// Encode a whole transaction (the WAL record payload).
pub fn encode_tx(tx: &Transaction) -> Vec<u8> {
    let mut e = Encoder::new();
    e.len(tx.len());
    for op in tx.ops() {
        encode_op(&mut e, op);
    }
    e.into_bytes()
}

/// Decode a transaction payload, requiring exact consumption.
pub fn decode_tx(bytes: &[u8]) -> Result<Transaction, CodecError> {
    let mut d = Decoder::new(bytes);
    let n = d.read_len()?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(decode_op(&mut d)?);
    }
    d.finish()?;
    Ok(Transaction::from_ops(ops))
}

/// Encode one view-catalog row: slot, name, query text and five retired
/// option bytes — an image's view section holds one per standing view,
/// a register record holds one.
pub(crate) fn encode_view(e: &mut Encoder, v: &SnapshotView) {
    e.u32(v.slot);
    e.str(&v.name);
    e.str(&v.query);
    // The retired bytes, as older builds wrote them for a default
    // registration (see `decode_view`): schema mode 0, `optimize` off,
    // planner on, cost-based ⨝ⁿ, catalog-chosen backend.
    e.u8(0);
    e.bool(false);
    e.bool(true);
    e.u8(1);
    e.u8(0);
}

/// Decode one view-catalog row. The five option bytes after the query
/// text are retired: older builds wrote a schema mode (0–1), an
/// `optimize` toggle, a planner toggle, a ⨝ⁿ mode (0–2) and a pinned ⨝ⁿ
/// backend (0–2) there. Each is checked against the values some build
/// wrote, then ignored: every view is registered from its text with the
/// default plan, which has the rows and columns any of those settings
/// gave.
pub(crate) fn decode_view(d: &mut Decoder<'_>) -> Result<SnapshotView, CodecError> {
    let (slot, name, query) = (d.u32()?, d.str()?, d.str()?);
    let schema_mode = d.u8()?;
    if schema_mode > 1 {
        return Err(CodecError::BadTag("schema-mode", schema_mode));
    }
    d.bool()?;
    d.bool()?;
    for what in ["wcoj-mode", "wcoj-sorted"] {
        let t = d.u8()?;
        if t > 2 {
            return Err(CodecError::BadTag(what, t));
        }
    }
    Ok(SnapshotView { slot, name, query })
}

/// A change to the view catalog, logged between data transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogRecord {
    /// A view was registered: its catalog row.
    Register(SnapshotView),
    /// The view in this slot was dropped.
    Drop(u32),
}

/// Where a transaction payload holds its op count, a catalog record
/// holds this: no transaction has `u32::MAX` ops, because no frame is
/// long enough to carry them, so the two payloads never collide and a
/// transaction's bytes stay exactly what they were before catalog
/// records existed.
const CATALOG_MARK: u32 = u32::MAX;
// Catalog record kinds.
const CAT_REGISTER: u8 = 0;
const CAT_DROP: u8 = 1;

/// Is `bytes` a catalog record's payload (rather than a transaction's)?
pub fn is_catalog(bytes: &[u8]) -> bool {
    bytes.get(..4) == Some(&CATALOG_MARK.to_le_bytes()[..])
}

/// One log record, borrowed: what the engine appends, and what
/// a read of the log yields in file order.
#[derive(Clone, Copy, Debug)]
pub enum Record<'a> {
    /// A committed data transaction.
    Tx(&'a Transaction),
    /// A view registered: its catalog row.
    Register(&'a SnapshotView),
    /// The view in this slot dropped.
    Drop(u32),
}

/// Encode a log record's payload: a transaction as [`encode_tx`], a
/// catalog change as the mark, a kind byte, then the registered view's
/// row or the dropped slot.
pub fn encode_record(record: Record<'_>) -> Vec<u8> {
    let mut e = Encoder::new();
    match record {
        Record::Tx(tx) => return encode_tx(tx),
        Record::Register(v) => {
            e.u32(CATALOG_MARK);
            e.u8(CAT_REGISTER);
            encode_view(&mut e, v);
        }
        Record::Drop(slot) => {
            e.u32(CATALOG_MARK);
            e.u8(CAT_DROP);
            e.u32(slot);
        }
    }
    e.into_bytes()
}

/// Decode a catalog record payload, requiring exact consumption.
pub fn decode_catalog(bytes: &[u8]) -> Result<CatalogRecord, CodecError> {
    let mut d = Decoder::new(bytes);
    match d.u32()? {
        CATALOG_MARK => {}
        _ => return Err(CodecError::BadTag("catalog-mark", bytes[0])),
    }
    let rec = match d.u8()? {
        CAT_REGISTER => CatalogRecord::Register(decode_view(&mut d)?),
        CAT_DROP => CatalogRecord::Drop(d.u32()?),
        t => return Err(CodecError::BadTag("catalog-record", t)),
    };
    d.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// Bit-at-a-time CRC-32, straight from the polynomial: shares no
    /// table with the implementation under test.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_slicing_matches_bitwise_reference_at_every_length_and_alignment() {
        // xorshift bytes; 8 start offsets into one buffer cover every
        // alignment of the 8-byte steps against the allocation.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1027 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1027 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
        }
    }

    fn roundtrip_value(v: &Value) {
        let mut e = Encoder::new();
        encode_value(&mut e, v);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = decode_value(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn value_roundtrips_cover_every_variant() {
        roundtrip_value(&Value::Null);
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Int(-42));
        roundtrip_value(&Value::float(2.5));
        roundtrip_value(&Value::float(f64::NEG_INFINITY));
        for s in [
            "",
            "héllo",
            "fourteen bytes",
            "thirteen byteé",
            &"x".repeat(300),
        ] {
            roundtrip_value(&Value::str(s));
        }
        roundtrip_value(&Value::Node(VertexId(7)));
        roundtrip_value(&Value::Rel(EdgeId(9)));
        roundtrip_value(&Value::list(vec![Value::Int(1), Value::str("x")]));
        roundtrip_value(&Value::map([
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Null),
        ]));
        roundtrip_value(&Value::path(PathValue::new(
            vec![VertexId(1), VertexId(2)],
            vec![EdgeId(5)],
        )));
    }

    #[test]
    fn nan_float_roundtrips_bit_exactly() {
        let mut e = Encoder::new();
        encode_value(&mut e, &Value::float(f64::NAN));
        let bytes = e.into_bytes();
        let back = decode_value(&mut Decoder::new(&bytes)).unwrap();
        match back {
            Value::Float(f) => assert!(f.get().is_nan()),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn tx_roundtrip_covers_every_op() {
        let sym = Symbol::intern;
        let mut tx = Transaction::new();
        let a = tx.create_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        tx.create_edge(a, VertexId(3), sym("REPLY"), Properties::new());
        tx.delete_vertex(VertexId(9), true);
        tx.delete_edge(EdgeId(4));
        tx.set_vertex_prop(a, sym("score"), Value::Int(5));
        tx.set_edge_prop(EdgeId(2), sym("w"), Value::Null);
        tx.add_label(a, sym("Hot"));
        tx.remove_label(VertexId(3), sym("Cold"));

        let bytes = encode_tx(&tx);
        let back = decode_tx(&bytes).unwrap();
        assert_eq!(back.len(), tx.len());
        for (x, y) in back.ops().iter().zip(tx.ops()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut e = Encoder::new();
        encode_value(&mut e, &Value::str("hello world"));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let r = decode_value(&mut Decoder::new(&bytes[..cut]));
            assert!(r.is_err(), "prefix of {cut} bytes decoded to {r:?}");
        }
    }

    #[test]
    fn bogus_length_is_rejected_without_allocation() {
        let mut e = Encoder::new();
        e.u8(7); // list tag
        e.u32(u32::MAX); // absurd length with no payload behind it
        let bytes = e.into_bytes();
        assert_eq!(
            decode_value(&mut Decoder::new(&bytes)),
            Err(CodecError::Eof)
        );
    }

    #[test]
    fn a_path_that_does_not_alternate_is_rejected() {
        for (nv, ne) in [(0, 0), (2, 0), (1, 1)] {
            let mut e = Encoder::new();
            e.u8(V_PATH);
            e.len(nv);
            (0..nv).for_each(|i| e.u64(i as u64));
            e.len(ne);
            (0..ne).for_each(|i| e.u64(i as u64));
            let bytes = e.into_bytes();
            let got = decode_value(&mut Decoder::new(&bytes));
            assert_eq!(got, Err(CodecError::BadPath), "{nv} vertices, {ne} edges");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            decode_value(&mut Decoder::new(&[0xFE])),
            Err(CodecError::BadTag("value", 0xFE))
        ));
        assert!(matches!(
            decode_tx(&[1, 0, 0, 0, 0xFE]),
            Err(CodecError::BadTag("tx-op", 0xFE))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_tx(&Transaction::new());
        bytes.push(0);
        assert!(matches!(decode_tx(&bytes), Err(CodecError::Trailing)));
    }

    fn view_row(slot: u32) -> SnapshotView {
        SnapshotView {
            slot,
            name: "v".into(),
            query: "MATCH (p:Post) RETURN p".into(),
        }
    }

    #[test]
    fn catalog_records_roundtrip_and_never_read_as_transactions() {
        let v = view_row(7);
        let register = encode_record(Record::Register(&v));
        let drop = encode_record(Record::Drop(7));
        assert_eq!(decode_catalog(&register), Ok(CatalogRecord::Register(v)));
        assert_eq!(decode_catalog(&drop), Ok(CatalogRecord::Drop(7)));
        for payload in [&register, &drop] {
            assert!(is_catalog(payload));
            assert!(decode_tx(payload).is_err());
        }
        // A transaction's payload is what `encode_tx` writes, and is no
        // catalog record, empty or not.
        let mut tx = Transaction::new();
        tx.delete_edge(EdgeId(3));
        for tx in [Transaction::new(), tx] {
            let payload = encode_record(Record::Tx(&tx));
            assert_eq!(payload, encode_tx(&tx));
            assert!(!is_catalog(&payload));
        }
    }

    #[test]
    fn catalog_option_bytes_out_of_range_are_rejected() {
        let good = encode_record(Record::Register(&view_row(0)));
        let n = good.len();
        for (at, byte, what) in [
            (n - 5, 2, "schema-mode"),
            (n - 4, 2, "bool"),
            (n - 3, 2, "bool"),
            (n - 2, 3, "wcoj-mode"),
            (n - 1, 3, "wcoj-sorted"),
            (4, 2, "catalog-record"),
        ] {
            let mut bad = good.clone();
            bad[at] = byte;
            assert_eq!(decode_catalog(&bad), Err(CodecError::BadTag(what, byte)));
        }
    }
}
