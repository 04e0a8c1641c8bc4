//! Fault-injectable file layer.
//!
//! All durability I/O goes through the [`Vfs`] trait so crash-recovery
//! tests can run against an in-memory disk and kill the "process" at any
//! byte boundary — or hand it a *disk that misbehaves*. Two
//! implementations:
//!
//! - [`StdVfs`] — a real directory, used in production. Honors the
//!   [`FsyncMode`] it is built with (the engine parses it from
//!   `PGQ_FSYNC`) for atomic writes; WAL appends are flushed explicitly
//!   via [`Vfs::sync`] (the engine's group-commit flush point).
//! - [`MemVfs`] over a shared [`MemDisk`] — two independent fault
//!   modes:
//!
//!   **Byte fuse** ([`MemDisk::vfs_with_fuse`]): a write budget counts
//!   down; once it blows, writes silently stop landing, exactly as if
//!   the process had been killed mid-write. Appends tear (a prefix of
//!   the record lands), atomic writes go all-or-nothing. The fuse
//!   models a *crash*, not an I/O error: a dying process gets no error
//!   to handle, so exhausted-fuse writes return `Ok` — the code under
//!   test cannot observe the crash point.
//!
//!   **Error injection** ([`MemDisk::vfs_with_fault`]): the N-th
//!   mutating operation *fails and reports it* — EIO, ENOSPC, a short
//!   write (a prefix lands, then the error), a failed `fsync` (which
//!   also drops every byte written since the last successful sync, the
//!   post-fsyncgate contract), or a torn rename (the destination ends
//!   up *missing*). This models a live disk returning errors to a
//!   process that keeps running; the engine's graceful-degradation
//!   contract is tested against it.
//!
//! The disk tracks a per-file **synced watermark**: [`Vfs::sync`]
//! advances it, and a failed sync truncates the file back to it —
//! unsynced page-cache bytes are exactly what a failed fsync may lose.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use pgq_common::fxhash::FxHashMap;
use pgq_common::sync::lock;

/// How eagerly durable writes are flushed to stable storage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FsyncMode {
    /// `fsync` at every commit flush point (see the engine's
    /// `PGQ_FLUSH_WINDOW`). Survives OS crashes, costs a disk
    /// round-trip per flush.
    Always,
    /// Leave flushing to the OS page cache (survives process crashes,
    /// not power loss). The default.
    #[default]
    Never,
}

/// Minimal file-system surface the durability layer needs. Names are
/// flat (no subdirectories).
pub trait Vfs: Send + Sync {
    /// Whole-file read; `Ok(None)` when the file does not exist.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Append bytes to the file, creating it if missing.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Atomically replace the file's contents (write-temp-then-rename):
    /// after a crash the file holds either the old bytes or the new
    /// bytes, never a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Remove the file; fine if it does not exist.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// Durably flush previously appended bytes (fsync). After an
    /// `Err`, callers must assume bytes appended since the last
    /// successful sync never reached the disk.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Names of all files present.
    fn list(&self) -> io::Result<Vec<String>>;
}

/// [`Vfs`] over a real directory (created on construction).
pub struct StdVfs {
    dir: PathBuf,
    fsync: FsyncMode,
}

impl StdVfs {
    /// Open (creating if needed) `dir` as a durability directory.
    pub fn new(dir: impl Into<PathBuf>, fsync: FsyncMode) -> io::Result<StdVfs> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StdVfs { dir, fsync })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Persist the rename itself; only meaningful under `Always`.
        if self.fsync == FsyncMode::Always {
            std::fs::File::open(&self.dir)?.sync_all()?;
        }
        Ok(())
    }
}

impl Vfs for StdVfs {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            if self.fsync == FsyncMode::Always {
                f.sync_data()?;
            }
        }
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?
            .sync_data()
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    out.push(name.to_string());
                }
            }
        }
        Ok(out)
    }
}

/// One injectable storage fault (see [`MemDisk::vfs_with_fault`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Generic I/O error; nothing lands.
    Eio,
    /// Out of space (classifies as ENOSPC); nothing lands.
    Enospc,
    /// Half the bytes land, then the error — a torn-but-reported write.
    ShortWrite,
    /// `fsync` fails AND the file's unsynced tail is dropped (the
    /// post-fsyncgate loss window). On non-sync operations this
    /// behaves like [`Fault::Eio`].
    FsyncFail,
    /// An atomic replace tears: the destination ends up *missing*
    /// (old unlinked, new never linked) and the error is reported. On
    /// non-rename operations this behaves like [`Fault::Eio`].
    TornRename,
}

impl Fault {
    /// All injectable faults, for sweep tests.
    pub const ALL: [Fault; 5] = [
        Fault::Eio,
        Fault::Enospc,
        Fault::ShortWrite,
        Fault::FsyncFail,
        Fault::TornRename,
    ];

    fn to_error(self) -> io::Error {
        match self {
            Fault::Enospc => io::Error::from_raw_os_error(28),
            Fault::ShortWrite => io::Error::new(io::ErrorKind::WriteZero, "injected short write"),
            Fault::FsyncFail => io::Error::other("injected fsync failure"),
            Fault::TornRename => io::Error::other("injected torn rename"),
            Fault::Eio => io::Error::other("injected EIO"),
        }
    }
}

struct FileBuf {
    bytes: Vec<u8>,
    /// Length durably flushed; a failed fsync truncates back to it.
    synced: usize,
}

#[derive(Default)]
struct MemDiskInner {
    files: FxHashMap<String, FileBuf>,
    /// Mutating operations attempted through any handle (append,
    /// write_atomic, remove, sync) — the index space fault plans fire
    /// in.
    ops_attempted: u64,
    /// Bytes offered to append/write_atomic through any handle,
    /// whether or not they landed — the index space byte fuses sweep.
    bytes_attempted: u64,
}

/// A shared in-memory "disk" that survives simulated process crashes.
/// Clones share state; hand one clone to the dying engine (via a fused
/// [`MemVfs`]) and another to the recovering engine.
#[derive(Clone, Default)]
pub struct MemDisk(Arc<Mutex<MemDiskInner>>);

impl MemDisk {
    /// Fresh empty disk.
    pub fn new() -> MemDisk {
        MemDisk::default()
    }

    /// A handle with an unlimited write budget and no faults.
    pub fn vfs(&self) -> MemVfs {
        MemVfs {
            disk: self.clone(),
            remaining: Arc::new(Mutex::new(None)),
            faults: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle whose writes stop landing after `budget` bytes — the
    /// crash-injection side. The budget is shared across all files.
    pub fn vfs_with_fuse(&self, budget: u64) -> MemVfs {
        MemVfs {
            disk: self.clone(),
            remaining: Arc::new(Mutex::new(Some(budget))),
            faults: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle that injects `fault` at the `op`-th mutating operation
    /// (0-indexed over the disk-wide [`MemDisk::ops_attempted`]
    /// counter), then behaves normally. The faulted operation *reports*
    /// its failure — this is the live-disk error model, not the crash
    /// model.
    pub fn vfs_with_fault(&self, op: u64, fault: Fault) -> MemVfs {
        self.vfs_with_faults(vec![(op, fault)])
    }

    /// A handle with a scripted fault plan (each entry fires once).
    pub fn vfs_with_faults(&self, plan: Vec<(u64, Fault)>) -> MemVfs {
        MemVfs {
            disk: self.clone(),
            remaining: Arc::new(Mutex::new(None)),
            faults: Arc::new(Mutex::new(plan)),
        }
    }

    /// Mutating operations attempted so far through any handle.
    pub fn ops_attempted(&self) -> u64 {
        lock(&self.0).ops_attempted
    }

    /// Bytes offered to writes so far through any handle.
    pub fn bytes_attempted(&self) -> u64 {
        lock(&self.0).bytes_attempted
    }

    /// Current length of `name`, if present.
    pub fn len(&self, name: &str) -> Option<usize> {
        lock(&self.0).files.get(name).map(|f| f.bytes.len())
    }

    /// Total bytes currently on the disk (the bounded-disk metric).
    pub fn total_len(&self) -> usize {
        lock(&self.0).files.values().map(|f| f.bytes.len()).sum()
    }

    /// Names of all files currently present (sorted).
    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.0).files.keys().cloned().collect();
        names.sort();
        names
    }

    /// What a power cut would leave, as a new disk: every file cut back
    /// to what [`Vfs::sync`] or [`Vfs::write_atomic`] made durable.
    pub fn after_power_cut(&self) -> MemDisk {
        let inner = lock(&self.0);
        let files = inner.files.iter().map(|(name, f)| {
            let bytes = f.bytes[..f.synced.min(f.bytes.len())].to_vec();
            let synced = bytes.len();
            (name.clone(), FileBuf { bytes, synced })
        });
        MemDisk(Arc::new(Mutex::new(MemDiskInner {
            files: files.collect(),
            ..MemDiskInner::default()
        })))
    }

    /// XOR `mask` into byte `offset` of `name` (bit-flip injection).
    /// Returns false when the file or offset does not exist.
    pub fn corrupt(&self, name: &str, offset: usize, mask: u8) -> bool {
        let mut inner = lock(&self.0);
        match inner
            .files
            .get_mut(name)
            .and_then(|f| f.bytes.get_mut(offset))
        {
            Some(b) => {
                *b ^= mask;
                true
            }
            None => false,
        }
    }

    /// Truncate `name` to `new_len` bytes (torn-tail injection).
    pub fn truncate(&self, name: &str, new_len: usize) {
        if let Some(f) = lock(&self.0).files.get_mut(name) {
            f.bytes.truncate(new_len);
            f.synced = f.synced.min(new_len);
        }
    }
}

/// [`Vfs`] handle over a [`MemDisk`], optionally with a byte fuse
/// and/or a fault plan.
pub struct MemVfs {
    disk: MemDisk,
    /// Remaining write budget in bytes; `None` = unlimited. Shared so a
    /// cloned handle (engine + its pool) drains one fuse.
    remaining: Arc<Mutex<Option<u64>>>,
    /// Scripted faults: (disk-wide op index, fault). Entries fire once.
    faults: Arc<Mutex<Vec<(u64, Fault)>>>,
}

impl MemVfs {
    /// Bytes of write budget left (`None` = unlimited).
    pub fn fuse_remaining(&self) -> Option<u64> {
        *lock(&self.remaining)
    }

    /// Has the fuse blown (budget exhausted)?
    pub fn fuse_blown(&self) -> bool {
        self.fuse_remaining() == Some(0)
    }

    /// Count one mutating op and return the fault scheduled for it, if
    /// any.
    fn next_op_fault(&self) -> Option<Fault> {
        let idx = {
            let mut inner = lock(&self.disk.0);
            let idx = inner.ops_attempted;
            inner.ops_attempted += 1;
            idx
        };
        let mut plan = lock(&self.faults);
        let pos = plan.iter().position(|(at, _)| *at == idx)?;
        Some(plan.swap_remove(pos).1)
    }

    fn count_bytes(&self, n: usize) {
        lock(&self.disk.0).bytes_attempted += n as u64;
    }
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(lock(&self.disk.0).files.get(name).map(|f| f.bytes.clone()))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.next_op_fault();
        self.count_bytes(bytes.len());
        // Error injection: a reported failure, with a torn prefix for
        // short writes; everything else leaves the file untouched.
        if let Some(fault) = fault {
            if fault == Fault::ShortWrite {
                let cut = bytes.len() / 2;
                if cut > 0 {
                    let mut inner = lock(&self.disk.0);
                    inner
                        .files
                        .entry(name.to_string())
                        .or_insert_with(|| FileBuf {
                            bytes: Vec::new(),
                            synced: 0,
                        })
                        .bytes
                        .extend_from_slice(&bytes[..cut]);
                }
            }
            return Err(fault.to_error());
        }
        // Crash fuse: the prefix that fits lands (a torn record); the
        // budget drains by the full attempt either way, and the caller
        // never sees an error.
        let mut remaining = lock(&self.remaining);
        let landed = match *remaining {
            None => bytes.len(),
            Some(ref mut r) => {
                let fit = (*r).min(bytes.len() as u64) as usize;
                *r = r.saturating_sub(bytes.len() as u64);
                fit
            }
        };
        if landed > 0 {
            let mut inner = lock(&self.disk.0);
            inner
                .files
                .entry(name.to_string())
                .or_insert_with(|| FileBuf {
                    bytes: Vec::new(),
                    synced: 0,
                })
                .bytes
                .extend_from_slice(&bytes[..landed]);
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.next_op_fault();
        self.count_bytes(bytes.len());
        if let Some(fault) = fault {
            if fault == Fault::TornRename {
                // The nastiest legal outcome of a torn rename without a
                // directory sync: old unlinked, new never linked.
                lock(&self.disk.0).files.remove(name);
            }
            // Every other fault leaves the visible file untouched (the
            // temp file absorbed the failure).
            return Err(fault.to_error());
        }
        let mut remaining = lock(&self.remaining);
        let lands = match *remaining {
            None => true,
            Some(ref mut r) => {
                if *r >= bytes.len() as u64 {
                    *r -= bytes.len() as u64;
                    true
                } else {
                    // Crashed mid-write: the temp file never got renamed,
                    // so the visible file is untouched.
                    *r = 0;
                    false
                }
            }
        };
        if lands {
            lock(&self.disk.0).files.insert(
                name.to_string(),
                FileBuf {
                    bytes: bytes.to_vec(),
                    synced: bytes.len(),
                },
            );
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        if let Some(fault) = self.next_op_fault() {
            return Err(fault.to_error());
        }
        let alive = !matches!(*lock(&self.remaining), Some(0));
        if alive {
            lock(&self.disk.0).files.remove(name);
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let fault = self.next_op_fault();
        let mut inner = lock(&self.disk.0);
        let Some(f) = inner.files.get_mut(name) else {
            // Syncing a missing file: report the scheduled fault if
            // any, otherwise succeed vacuously.
            return match fault {
                Some(fault) => Err(fault.to_error()),
                None => Ok(()),
            };
        };
        match fault {
            Some(Fault::FsyncFail) => {
                // Post-fsyncgate: the dirty pages this sync covered are
                // gone, not retryable. Roll the file back to its last
                // durable prefix.
                let synced = f.synced;
                f.bytes.truncate(synced);
                Err(Fault::FsyncFail.to_error())
            }
            Some(fault) => Err(fault.to_error()),
            None => {
                f.synced = f.bytes.len();
                Ok(())
            }
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.disk.file_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_append_and_read_roundtrip() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        vfs.append("f", b"abc").unwrap();
        vfs.append("f", b"de").unwrap();
        assert_eq!(vfs.read("f").unwrap().unwrap(), b"abcde");
        assert_eq!(vfs.read("missing").unwrap(), None);
        assert_eq!(disk.ops_attempted(), 2);
        assert_eq!(disk.bytes_attempted(), 5);
        assert_eq!(vfs.list().unwrap(), vec!["f".to_string()]);
    }

    #[test]
    fn fuse_tears_appends_at_the_byte() {
        let disk = MemDisk::new();
        let vfs = disk.vfs_with_fuse(5);
        vfs.append("f", b"abc").unwrap(); // 3 land, 2 left
        vfs.append("f", b"defg").unwrap(); // 2 land (torn), fuse blown
        vfs.append("f", b"hij").unwrap(); // nothing lands
        assert!(vfs.fuse_blown());
        assert_eq!(disk.vfs().read("f").unwrap().unwrap(), b"abcde");
    }

    #[test]
    fn fused_atomic_write_is_all_or_nothing() {
        let disk = MemDisk::new();
        disk.vfs().write_atomic("s", b"old").unwrap();
        let vfs = disk.vfs_with_fuse(2);
        vfs.write_atomic("s", b"newer").unwrap(); // doesn't fit: old survives
        assert!(vfs.fuse_blown());
        assert_eq!(disk.vfs().read("s").unwrap().unwrap(), b"old");

        let vfs2 = disk.vfs_with_fuse(100);
        vfs2.write_atomic("s", b"newer").unwrap();
        assert_eq!(disk.vfs().read("s").unwrap().unwrap(), b"newer");
    }

    #[test]
    fn corruption_injection() {
        let disk = MemDisk::new();
        disk.vfs().append("f", b"abc").unwrap();
        assert!(disk.corrupt("f", 1, 0xFF));
        assert!(!disk.corrupt("f", 99, 0xFF));
        assert_eq!(disk.vfs().read("f").unwrap().unwrap()[1], b'b' ^ 0xFF);
        disk.truncate("f", 1);
        assert_eq!(disk.len("f"), Some(1));
    }

    #[test]
    fn injected_eio_reports_and_leaves_file_untouched() {
        let disk = MemDisk::new();
        let vfs = disk.vfs_with_fault(1, Fault::Eio);
        vfs.append("f", b"abc").unwrap(); // op 0
        let err = vfs.append("f", b"def").unwrap_err(); // op 1: injected
        assert!(err.to_string().contains("EIO"));
        vfs.append("f", b"ghi").unwrap(); // op 2: healthy again
        assert_eq!(disk.vfs().read("f").unwrap().unwrap(), b"abcghi");
    }

    #[test]
    fn injected_enospc_classifies_as_out_of_space() {
        let disk = MemDisk::new();
        let vfs = disk.vfs_with_fault(0, Fault::Enospc);
        let err = vfs.append("f", b"abc").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(disk.len("f"), None);
    }

    #[test]
    fn injected_short_write_tears_and_reports() {
        let disk = MemDisk::new();
        let vfs = disk.vfs_with_fault(1, Fault::ShortWrite);
        vfs.append("f", b"abcd").unwrap();
        assert!(vfs.append("f", b"wxyz").is_err());
        // Half landed: a torn-but-reported record.
        assert_eq!(disk.vfs().read("f").unwrap().unwrap(), b"abcdwx");
    }

    #[test]
    fn failed_fsync_drops_the_unsynced_tail() {
        let disk = MemDisk::new();
        let vfs = disk.vfs_with_fault(3, Fault::FsyncFail);
        vfs.append("f", b"abc").unwrap(); // op 0
        vfs.sync("f").unwrap(); // op 1: synced = 3
        vfs.append("f", b"def").unwrap(); // op 2 (unsynced)
        assert!(vfs.sync("f").is_err()); // op 3: fails, tail dropped
        assert_eq!(disk.vfs().read("f").unwrap().unwrap(), b"abc");
        // The disk keeps working afterwards.
        vfs.append("f", b"ghi").unwrap();
        vfs.sync("f").unwrap();
        assert_eq!(disk.vfs().read("f").unwrap().unwrap(), b"abcghi");
    }

    #[test]
    fn power_cut_keeps_only_synced_bytes() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        vfs.append("w", b"abc").unwrap();
        vfs.sync("w").unwrap();
        vfs.append("w", b"def").unwrap();
        vfs.write_atomic("s", b"img").unwrap();
        vfs.append("x", b"never synced").unwrap();
        let cut = disk.after_power_cut();
        assert_eq!(cut.vfs().read("w").unwrap().unwrap(), b"abc");
        assert_eq!(cut.vfs().read("s").unwrap().unwrap(), b"img");
        assert_eq!(cut.len("x"), Some(0));
        // The disk it was taken from keeps every byte.
        assert_eq!(disk.len("w"), Some(6));
    }

    #[test]
    fn torn_rename_unlinks_the_destination() {
        let disk = MemDisk::new();
        disk.vfs().write_atomic("s", b"old").unwrap();
        let vfs = disk.vfs_with_fault(1, Fault::TornRename);
        assert!(vfs.write_atomic("s", b"new").is_err());
        assert_eq!(disk.vfs().read("s").unwrap(), None);
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pgq-vfs-test-{}", std::process::id()));
        let vfs = StdVfs::new(&dir, FsyncMode::Never).unwrap();
        vfs.append("w", b"ab").unwrap();
        vfs.append("w", b"c").unwrap();
        vfs.sync("w").unwrap();
        assert_eq!(vfs.read("w").unwrap().unwrap(), b"abc");
        vfs.write_atomic("s", b"snap").unwrap();
        assert_eq!(vfs.read("s").unwrap().unwrap(), b"snap");
        let mut names = vfs.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["s".to_string(), "w".to_string()]);
        vfs.remove("w").unwrap();
        vfs.remove("w").unwrap(); // idempotent
        assert_eq!(vfs.read("w").unwrap(), None);
        vfs.remove("s").unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
