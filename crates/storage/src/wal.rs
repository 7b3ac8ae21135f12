//! File-backed, segmented write-ahead log for observations.
//!
//! The paper's Velox delegates durability to Tachyon — every `observe` is
//! "durably recorded for use by Spark when retraining" (§4.1). Our
//! in-memory substitute loses the online state on process crash, so this
//! module adds the missing half of the fault model: each acknowledged
//! observation is appended to an on-disk log *before* the ack, and startup
//! recovery replays the log tail over the latest checkpoint.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files `wal-<start_ts>.log`, where
//! `start_ts` is the logical timestamp (== log offset) of the segment's
//! first record. Each segment starts with a 16-byte header:
//!
//! ```text
//! magic "VLW1" u32 | format u32 | start_ts u64          (big-endian)
//! ```
//!
//! followed by length-prefixed, CRC-checksummed records:
//!
//! ```text
//! len u32 | crc32(payload) u32 | payload
//! payload = ts u64 | uid u64 | item u64 | y f64          (32 bytes)
//! ```
//!
//! ## Crash consistency
//!
//! [`Wal::open`] scans every segment in order and stops at the first
//! invalid record (short header, short record, or CRC mismatch). A torn
//! *tail* — the expected result of a crash mid-append — is truncated away
//! so the log is immediately appendable again. Corruption in the *middle*
//! of the log (bit rot) also stops the scan; later segments are renamed to
//! `*.quarantined` rather than deleted, preserving the bytes for forensics
//! while keeping the live log free of gaps. Recovery never panics on any
//! byte sequence.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for observe-path throughput:
//! `PerRecord` fsyncs before every ack (no acknowledged record can be
//! lost), `Batched { every }` bounds the loss window to `every` records,
//! and `Off` leaves flushing to the OS page cache. The cost of each is
//! quantified in EXPERIMENTS.md `RECOVERY-DURABILITY`.
//!
//! ## Writing and syncing
//!
//! Writing and syncing are separate steps, so a caller that writes under
//! its own lock can wait for the disk after releasing it. [`Wal::write`]
//! puts a record in the current segment; writes serialize on an internal
//! lock, so the on-disk order is the order of the calls. [`Wal::sync`]
//! `fdatasync`s the current segment, which covers every record written
//! before the call: a record in an earlier segment was synced when that
//! segment was closed. [`Wal::append`] is a write plus whatever sync the
//! policy owes.
//!
//! A failed write or `fdatasync` poisons the log: every later write and
//! sync returns the same error, and no `fdatasync` is ever retried (after
//! a failed one Linux may have dropped the dirty pages, so a retry could
//! report success for data that is gone). Syncs run one at a time for the
//! same reason: a failed sync consumes the file's error, and one that
//! overlapped it could report success. Reopening the directory is the
//! recovery.
//!
//! ## Preallocation
//!
//! A record written inside the file's current length makes `fdatasync` a
//! flush of data pages. A record that grows the file also makes it commit
//! the new length to the filesystem journal: on ext4 that took a sync from
//! ~47 to ~67 µs. So a segment is extended with zeros
//! [`PREALLOC_RECORDS`] records ahead of its last record, never past the
//! last whole record that fits `segment_max_bytes`, and the scan reads a
//! run of zeros at least one record long, where a record would start and
//! reaching the end of the file, as the segment's clean end. A handle
//! locks the segment it appends to (`flock`), and dropping the handle
//! trims the zeros: a cleanly closed segment holds exactly its records,
//! and no other handle can have appended behind them. A handle that finds
//! the last segment locked by another starts a new one.

use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use velox_obs::{Counter, Histogram};

use crate::crc::crc32;
use crate::obslog::Observation;
use crate::{Result, StorageError};

/// Magic prefix of every WAL segment file ("VLW1").
const MAGIC_WAL: u32 = 0x564C_5731;
/// Format version written into segment headers.
const FORMAT: u32 = 1;
/// Segment header: magic + format + start_ts.
pub(crate) const HEADER_LEN: usize = 16;
/// Fixed payload size of an observation record.
const PAYLOAD_LEN: usize = 32;
/// Full record size: len prefix + crc + payload.
pub(crate) const RECORD_LEN: usize = 8 + PAYLOAD_LEN;
/// Upper bound accepted for a record's claimed payload length; anything
/// larger is corruption (keeps a flipped length bit from causing a huge
/// read-ahead).
const MAX_PAYLOAD_LEN: u32 = 1 << 20;
/// Records' worth of zeros a segment is extended by at a time (module
/// docs: preallocation): 64 KB, one file-length commit per 1 600 records.
const PREALLOC_RECORDS: u64 = 1_600;

/// When (relative to the append that was just acknowledged) the log file
/// is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: an acknowledged observation is
    /// never lost, at the price of one disk round-trip per observe.
    PerRecord,
    /// `fdatasync` after every `every` records: bounds the loss window.
    Batched {
        /// Records between syncs (0 behaves like `Off`).
        every: u32,
    },
    /// Never explicitly synced; the OS flushes when it pleases. Fastest,
    /// loses up to the page-cache contents on power failure.
    Off,
}

impl FsyncPolicy {
    /// Short human-readable name (bench tables, logs).
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::PerRecord => "per-record".to_string(),
            FsyncPolicy::Batched { every } => format!("batched({every})"),
            FsyncPolicy::Off => "off".to_string(),
        }
    }
}

/// WAL tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_max_bytes: u64,
    /// Flush policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// Defaults: 1 MiB segments, fsync per record.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig { dir: dir.into(), segment_max_bytes: 1 << 20, fsync: FsyncPolicy::PerRecord }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Every valid record, in log order (dense, ascending timestamps).
    pub records: Vec<Observation>,
    /// Why the scan stopped early, when it did (torn tail, CRC mismatch,
    /// bad header). `None` means every byte on disk was valid.
    pub torn: Option<String>,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Segment files renamed to `*.quarantined` because they followed a
    /// corrupt segment (their contents can no longer be ordered safely).
    pub quarantined: usize,
}

/// Where one [`Wal::append_timed`] call spent its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalAppendTiming {
    /// Serialize + buffered write (+ any segment rotation), nanoseconds.
    pub append_ns: u64,
    /// The fsync, when the policy issued one on this append; 0 otherwise.
    pub fsync_ns: u64,
}

/// Append/flush counters, shareable with a metrics registry.
#[derive(Clone)]
pub struct WalStats {
    /// Records appended.
    pub appends: Arc<Counter>,
    /// Explicit `fdatasync` calls issued.
    pub fsyncs: Arc<Counter>,
    /// Payload + framing bytes written.
    pub bytes_written: Arc<Counter>,
    /// Duration of every `fdatasync` issued, in nanoseconds; `None`
    /// records nothing.
    pub fsync_ns: Option<Arc<Histogram>>,
}

impl WalStats {
    /// Fresh zeroed counters, no fsync histogram.
    pub fn new() -> Self {
        WalStats {
            appends: Arc::new(Counter::new()),
            fsyncs: Arc::new(Counter::new()),
            bytes_written: Arc::new(Counter::new()),
            fsync_ns: None,
        }
    }
}

impl Default for WalStats {
    fn default() -> Self {
        WalStats::new()
    }
}

struct SegmentInfo {
    start_ts: u64,
    path: PathBuf,
}

struct OpenSegment {
    file: Arc<File>,
    /// Header and records: where the next record goes.
    bytes: u64,
    /// The file's length: `bytes` plus the zeros written ahead of them.
    allocated: u64,
}

/// The append side of the log, behind the writer lock.
struct Writer {
    /// All live segments in log order; the last one is the append target.
    segments: Vec<SegmentInfo>,
    /// The open append target. `None` until the first write: opening the
    /// last segment is left to it, so [`Wal::open`] stays a scan.
    current: Option<OpenSegment>,
    /// Header and records of the last segment as [`Wal::open`] found it:
    /// where the first write resumes.
    tail: u64,
}

/// The sync side of the log, behind the sync lock, which each `fdatasync`
/// holds (module docs). Taken after the writer lock, never before it.
struct Syncer {
    /// The segment new records go to: the one a sync flushes.
    file: Option<Arc<File>>,
    /// The first failed write or sync; once set, the log is poisoned.
    failed: Option<String>,
}

/// The write-ahead log handle. Shareable: writes serialize on an internal
/// lock, and so do syncs (module docs). Callers that need their in-memory
/// order to match the on-disk order (`ObservationLog`, a node's log)
/// write under their own lock and may sync after releasing it.
pub struct Wal {
    config: WalConfig,
    writer: Mutex<Writer>,
    syncer: Mutex<Syncer>,
    /// Mirrors `syncer.failed.is_some()`, so a write need not wait out a
    /// sync in flight to learn the log is healthy.
    poisoned: AtomicBool,
    /// Records [`Wal::append`] wrote since the `Batched` policy last synced.
    unsynced: u32,
    stats: WalStats,
    /// Makes the next `fdatasync`s fail as a disk error would.
    #[cfg(test)]
    fail_syncs: AtomicBool,
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

fn poisoned(why: &str) -> StorageError {
    StorageError::Io(format!("wal poisoned by an earlier failure: {why}"))
}

/// Best-effort directory fsync (makes renames/creates durable on Linux).
fn sync_dir(dir: &Path) {
    if let Ok(f) = File::open(dir) {
        let _ = f.sync_all();
    }
}

fn segment_path(dir: &Path, start_ts: u64) -> PathBuf {
    dir.join(format!("wal-{start_ts:020}.log"))
}

fn read_u32(buf: &[u8], pos: usize) -> u32 {
    u32::from_be_bytes(buf[pos..pos + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], pos: usize) -> u64 {
    u64::from_be_bytes(buf[pos..pos + 8].try_into().unwrap())
}

/// Result of scanning one segment's bytes.
struct SegmentScan {
    records: Vec<Observation>,
    /// Byte length of the valid prefix (everything before the first
    /// invalid record).
    valid_len: usize,
    /// Why the scan stopped early, if it did.
    stop: Option<String>,
}

fn scan_segment(buf: &[u8], path: &Path) -> SegmentScan {
    let name = path.display();
    if buf.len() < HEADER_LEN {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            stop: Some(format!("{name}: truncated header ({} bytes)", buf.len())),
        };
    }
    if read_u32(buf, 0) != MAGIC_WAL {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            stop: Some(format!("{name}: bad segment magic")),
        };
    }
    if read_u32(buf, 4) != FORMAT {
        return SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            stop: Some(format!("{name}: unknown format {}", read_u32(buf, 4))),
        };
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        if pos == buf.len() {
            return SegmentScan { records, valid_len: pos, stop: None };
        }
        if buf.len() - pos >= RECORD_LEN && buf[pos..].iter().all(|&b| b == 0) {
            // Preallocated zeros no record reached (module docs).
            return SegmentScan { records, valid_len: pos, stop: None };
        }
        if buf.len() - pos < 8 {
            return SegmentScan {
                records,
                valid_len: pos,
                stop: Some(format!("{name}: torn record framing at byte {pos}")),
            };
        }
        let len = read_u32(buf, pos);
        if len != PAYLOAD_LEN as u32 && len > MAX_PAYLOAD_LEN {
            return SegmentScan {
                records,
                valid_len: pos,
                stop: Some(format!("{name}: implausible record length {len} at byte {pos}")),
            };
        }
        let len = len as usize;
        if buf.len() - pos - 8 < len {
            return SegmentScan {
                records,
                valid_len: pos,
                stop: Some(format!("{name}: torn record payload at byte {pos}")),
            };
        }
        let crc = read_u32(buf, pos + 4);
        let payload = &buf[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return SegmentScan {
                records,
                valid_len: pos,
                stop: Some(format!("{name}: crc mismatch at byte {pos}")),
            };
        }
        if len != PAYLOAD_LEN {
            // Checksummed but not a shape this version understands.
            return SegmentScan {
                records,
                valid_len: pos,
                stop: Some(format!("{name}: unknown record shape ({len} bytes) at byte {pos}")),
            };
        }
        records.push(Observation {
            timestamp: read_u64(payload, 0),
            uid: read_u64(payload, 8),
            item_id: read_u64(payload, 16),
            y: f64::from_be_bytes(payload[24..32].try_into().unwrap()),
        });
        pos += 8 + len;
    }
}

impl Wal {
    /// Opens (or initializes) the log at `config.dir`, scanning and
    /// repairing whatever a previous process left behind. Returns the
    /// handle positioned for appending plus everything recovered.
    pub fn open(config: WalConfig) -> Result<(Wal, WalRecovery)> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err("create wal dir", e))?;
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&config.dir).map_err(|e| io_err("read wal dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read wal dir entry", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(ts) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                files.push((ts, entry.path()));
            }
        }
        files.sort_by_key(|(ts, _)| *ts);

        let mut records = Vec::new();
        let mut torn: Option<String> = None;
        let mut segments = Vec::new();
        let mut quarantined = 0usize;
        let mut scanned = 0usize;
        let mut tail = 0u64;
        for (start_ts, path) in &files {
            if torn.is_some() {
                // Everything after the first corruption can no longer be
                // ordered against the live log; set it aside, don't delete.
                let mut q = path.clone();
                q.set_extension("log.quarantined");
                fs::rename(path, &q).map_err(|e| io_err("quarantine segment", e))?;
                quarantined += 1;
                continue;
            }
            scanned += 1;
            let buf = fs::read(path).map_err(|e| io_err("read wal segment", e))?;
            let scan = scan_segment(&buf, path);
            records.extend(scan.records);
            if let Some(reason) = scan.stop {
                torn = Some(reason);
                if scan.valid_len < HEADER_LEN {
                    // Not even a full header survived; the file holds
                    // nothing recoverable.
                    fs::remove_file(path).map_err(|e| io_err("remove torn segment", e))?;
                } else {
                    if scan.valid_len < buf.len() {
                        let f = OpenOptions::new()
                            .write(true)
                            .open(path)
                            .map_err(|e| io_err("open segment for repair", e))?;
                        f.set_len(scan.valid_len as u64)
                            .map_err(|e| io_err("truncate torn segment", e))?;
                        f.sync_all().map_err(|e| io_err("sync repaired segment", e))?;
                    }
                    segments.push(SegmentInfo { start_ts: *start_ts, path: path.clone() });
                    tail = scan.valid_len as u64;
                }
            } else {
                segments.push(SegmentInfo { start_ts: *start_ts, path: path.clone() });
                tail = scan.valid_len as u64;
            }
        }
        sync_dir(&config.dir);

        let recovery = WalRecovery { records, torn, segments_scanned: scanned, quarantined };
        let wal = Wal {
            config,
            writer: Mutex::new(Writer { segments, current: None, tail }),
            syncer: Mutex::new(Syncer { file: None, failed: None }),
            poisoned: AtomicBool::new(false),
            unsynced: 0,
            stats: WalStats::new(),
            #[cfg(test)]
            fail_syncs: AtomicBool::new(false),
        };
        Ok((wal, recovery))
    }

    /// Counts into `stats` instead of the log's own counters
    /// (builder-style), so counters that outlive this handle — a node's,
    /// across restarts — keep one series.
    pub fn with_stats(mut self, stats: WalStats) -> Wal {
        self.stats = stats;
        self
    }

    /// Shared counter handles (for registry adoption).
    pub fn stats(&self) -> WalStats {
        self.stats.clone()
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.writer.lock().unwrap().segments.len()
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.config.fsync
    }

    /// Makes `file` the append target, for the writer and for syncs.
    fn install(&self, w: &mut Writer, file: File, bytes: u64, allocated: u64) {
        let file = Arc::new(file);
        self.syncer.lock().unwrap().file = Some(Arc::clone(&file));
        w.current = Some(OpenSegment { file, bytes, allocated });
    }

    /// Ensures the append target has room for one more record, opening
    /// the last segment on the first write and rotating when it is full.
    fn make_room(&self, w: &mut Writer, ts: u64) -> Result<()> {
        if w.current.is_none() {
            if let Some(last) = w.segments.last() {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&last.path)
                    .map_err(|e| io_err("open wal segment for append", e))?;
                // Locked: another live handle appends there (module docs),
                // so this one rotates to a segment of its own.
                if file.try_lock().is_ok() {
                    let allocated =
                        file.metadata().map_err(|e| io_err("stat wal segment", e))?.len();
                    let tail = w.tail;
                    self.install(w, file, tail, allocated);
                }
            }
        }
        match &w.current {
            Some(seg) if seg.bytes + RECORD_LEN as u64 <= self.config.segment_max_bytes => Ok(()),
            _ => self.rotate(w, ts),
        }
    }

    fn rotate(&self, w: &mut Writer, start_ts: u64) -> Result<()> {
        self.sync()?; // never abandon unsynced bytes in a closed segment
        let path = segment_path(&self.config.dir, start_ts);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(&path)
            .map_err(|e| io_err("create wal segment", e))?;
        // Nobody else can hold a file this call just created.
        let _ = file.try_lock();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC_WAL.to_be_bytes());
        header.extend_from_slice(&FORMAT.to_be_bytes());
        header.extend_from_slice(&start_ts.to_be_bytes());
        file.write_all_at(&header, 0).map_err(|e| io_err("write segment header", e))?;
        sync_dir(&self.config.dir);
        w.segments.push(SegmentInfo { start_ts, path });
        self.install(w, file, HEADER_LEN as u64, HEADER_LEN as u64);
        Ok(())
    }

    /// End of the last whole record that fits `segment_max_bytes`: how far
    /// a segment is ever preallocated.
    fn last_fit(&self) -> u64 {
        let (header, record) = (HEADER_LEN as u64, RECORD_LEN as u64);
        header + self.config.segment_max_bytes.saturating_sub(header) / record * record
    }

    /// Records the first failure (under the sync lock) and returns the
    /// poisoned-log error.
    fn poison(&self, syncer: &mut Syncer, why: String) -> StorageError {
        self.poisoned.store(true, Ordering::Release);
        poisoned(syncer.failed.get_or_insert(why))
    }

    /// `Ok` while the log accepts writes; once a write or sync has failed,
    /// the poisoned-log error every later call returns.
    pub fn check(&self) -> Result<()> {
        if !self.poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let syncer = self.syncer.lock().unwrap();
        Err(poisoned(syncer.failed.as_deref().unwrap_or_default()))
    }

    /// Writes one record into the current segment (rotating first when it
    /// is full) without syncing it.
    pub fn write(&self, obs: &Observation) -> Result<()> {
        let mut w = self.writer.lock().unwrap();
        self.check()?;
        self.make_room(&mut w, obs.timestamp)?;

        let mut payload = [0u8; PAYLOAD_LEN];
        payload[0..8].copy_from_slice(&obs.timestamp.to_be_bytes());
        payload[8..16].copy_from_slice(&obs.uid.to_be_bytes());
        payload[16..24].copy_from_slice(&obs.item_id.to_be_bytes());
        payload[24..32].copy_from_slice(&obs.y.to_be_bytes());
        let mut rec = [0u8; RECORD_LEN];
        rec[0..4].copy_from_slice(&(PAYLOAD_LEN as u32).to_be_bytes());
        rec[4..8].copy_from_slice(&crc32(&payload).to_be_bytes());
        rec[8..].copy_from_slice(&payload);

        let last_fit = self.last_fit();
        let seg = w.current.as_mut().expect("make_room ensured a segment");
        let end = seg.bytes + RECORD_LEN as u64;
        if end > seg.allocated {
            let ahead = seg.allocated + PREALLOC_RECORDS * RECORD_LEN as u64;
            let to = ahead.min(last_fit).max(end);
            let zeros = vec![0u8; (to - seg.allocated) as usize];
            seg.file
                .write_all_at(&zeros, seg.allocated)
                .map_err(|e| io_err("preallocate wal segment", e))?;
            seg.allocated = to;
        }
        if let Err(e) = seg.file.write_all_at(&rec, seg.bytes) {
            // A short write leaves a torn record that every later record
            // would sit behind, unreachable to recovery.
            let mut syncer = self.syncer.lock().unwrap();
            return Err(self.poison(&mut syncer, format!("append wal record: {e}")));
        }
        seg.bytes += RECORD_LEN as u64;
        self.stats.appends.inc();
        self.stats.bytes_written.add(RECORD_LEN as u64);
        Ok(())
    }

    /// Flushes every record written so far to stable storage (a no-op
    /// under [`FsyncPolicy::Off`], which never syncs explicitly). Waits for
    /// a sync in flight before issuing its own.
    pub fn sync(&self) -> Result<()> {
        let mut syncer = self.syncer.lock().unwrap();
        if let Some(why) = &syncer.failed {
            return Err(poisoned(why));
        }
        let Some(file) = &syncer.file else { return Ok(()) };
        if self.config.fsync == FsyncPolicy::Off {
            return Ok(());
        }
        let started = Instant::now();
        if let Err(e) = self.fdatasync(file) {
            return Err(self.poison(&mut syncer, format!("fsync wal segment: {e}")));
        }
        self.stats.fsyncs.inc();
        if let Some(hist) = &self.stats.fsync_ns {
            hist.record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        Ok(())
    }

    fn fdatasync(&self, file: &File) -> std::io::Result<()> {
        #[cfg(test)]
        if self.fail_syncs.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected fdatasync failure"));
        }
        file.sync_data()
    }

    /// Whether the policy owes a sync for the record just appended: always
    /// under `PerRecord`, every `every` records under `Batched`, never
    /// under `Off`.
    fn sync_owed(&mut self) -> bool {
        match self.config.fsync {
            FsyncPolicy::PerRecord => true,
            FsyncPolicy::Batched { every } => {
                self.unsynced += 1;
                let owed = every > 0 && self.unsynced >= every;
                if owed {
                    self.unsynced = 0;
                }
                owed
            }
            FsyncPolicy::Off => false,
        }
    }

    /// Appends one record, honoring the fsync policy. On return `Ok`, the
    /// record is on disk (modulo the policy's loss window).
    pub fn append(&mut self, obs: &Observation) -> Result<()> {
        self.append_timed(obs).map(|_| ())
    }

    /// [`Wal::append`] that also reports where the time went, so the
    /// serving layer can attribute the observe ack's tail to the buffered
    /// write vs the fsync (the two behave very differently under
    /// [`FsyncPolicy`]). Two extra `Instant` reads over plain `append` —
    /// noise next to the write syscall it times.
    pub fn append_timed(&mut self, obs: &Observation) -> Result<WalAppendTiming> {
        let append_started = Instant::now();
        self.write(obs)?;
        let append_ns = append_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;

        let mut fsync_ns = 0;
        if self.sync_owed() {
            let sync_started = Instant::now();
            self.sync()?;
            fsync_ns = sync_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        }
        Ok(WalAppendTiming { append_ns, fsync_ns })
    }

    /// Deletes segments wholly covered by a checkpoint: every segment
    /// whose successor starts at or before `covered_ts` (i.e. all of its
    /// records have timestamp `< covered_ts`). The newest segment is never
    /// deleted. Returns how many files were removed.
    pub fn truncate_covered(&mut self, covered_ts: u64) -> Result<usize> {
        let segments = &mut self.writer.get_mut().unwrap().segments;
        let mut removed = 0usize;
        while segments.len() >= 2 && segments[1].start_ts <= covered_ts {
            let seg = segments.remove(0);
            fs::remove_file(&seg.path).map_err(|e| io_err("remove covered segment", e))?;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.config.dir);
        }
        Ok(removed)
    }
}

impl Drop for Wal {
    /// Trims the preallocated zeros off the segment this handle appends to
    /// and holds the lock of (module docs), unsynced: a crash before the
    /// trim reaches the disk leaves zeros the scan reads as the clean end.
    fn drop(&mut self) {
        if let Ok(Writer { current: Some(seg), .. }) = self.writer.get_mut() {
            if seg.allocated > seg.bytes {
                let _ = seg.file.set_len(seg.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp::ScratchDir;

    fn obs(ts: u64) -> Observation {
        Observation { uid: ts * 7, item_id: ts * 13, y: ts as f64 * 0.5, timestamp: ts }
    }

    fn open(dir: &Path, fsync: FsyncPolicy, seg_bytes: u64) -> (Wal, WalRecovery) {
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = fsync;
        cfg.segment_max_bytes = seg_bytes;
        Wal::open(cfg).unwrap()
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = ScratchDir::new("velox-wal");
        {
            let (mut wal, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
            assert!(rec.records.is_empty());
            for ts in 0..25 {
                wal.append(&obs(ts)).unwrap();
            }
        }
        let (_, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records.len(), 25);
        assert!(rec.torn.is_none());
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(*r, obs(i as u64));
        }
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = ScratchDir::new("velox-wal");
        // Room for ~4 records per segment.
        let seg_bytes = (HEADER_LEN + 4 * RECORD_LEN) as u64;
        {
            let (mut wal, _) = open(dir.path(), FsyncPolicy::Off, seg_bytes);
            for ts in 0..10 {
                wal.append(&obs(ts)).unwrap();
            }
            assert_eq!(wal.segment_count(), 3);
        }
        let (wal, rec) = open(dir.path(), FsyncPolicy::Off, seg_bytes);
        assert_eq!(rec.segments_scanned, 3);
        assert_eq!(rec.records.len(), 10);
        assert_eq!(wal.segment_count(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = ScratchDir::new("velox-wal");
        {
            let (mut wal, _) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
            for ts in 0..5 {
                wal.append(&obs(ts)).unwrap();
            }
        }
        // Tear the last record in half.
        let path = segment_path(dir.path(), 0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - RECORD_LEN / 2]).unwrap();

        let (mut wal, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records.len(), 4);
        assert!(rec.torn.is_some());
        // The tail is clean again: append continues where the log ended.
        wal.append(&obs(4)).unwrap();
        drop(wal);
        let (_, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records.len(), 5);
        assert!(rec.torn.is_none());
    }

    #[test]
    fn mid_log_corruption_quarantines_later_segments() {
        let dir = ScratchDir::new("velox-wal");
        let seg_bytes = (HEADER_LEN + 2 * RECORD_LEN) as u64;
        {
            let (mut wal, _) = open(dir.path(), FsyncPolicy::PerRecord, seg_bytes);
            for ts in 0..6 {
                wal.append(&obs(ts)).unwrap();
            }
            assert_eq!(wal.segment_count(), 3);
        }
        // Flip a payload byte in the FIRST segment's second record.
        let path = segment_path(dir.path(), 0);
        let mut buf = fs::read(&path).unwrap();
        let idx = HEADER_LEN + RECORD_LEN + 8 + 3;
        buf[idx] ^= 0x40;
        fs::write(&path, &buf).unwrap();

        let (wal, rec) = open(dir.path(), FsyncPolicy::PerRecord, seg_bytes);
        assert_eq!(rec.records.len(), 1, "scan stops at the corrupt record");
        assert!(rec.torn.unwrap().contains("crc mismatch"));
        assert_eq!(rec.quarantined, 2);
        assert_eq!(wal.segment_count(), 1);
        let quarantined: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().to_string_lossy().ends_with(".quarantined"))
            .collect();
        assert_eq!(quarantined.len(), 2);
    }

    #[test]
    fn truncate_covered_removes_only_fully_covered_segments() {
        let dir = ScratchDir::new("velox-wal");
        let seg_bytes = (HEADER_LEN + 2 * RECORD_LEN) as u64;
        let (mut wal, _) = open(dir.path(), FsyncPolicy::Off, seg_bytes);
        for ts in 0..6 {
            wal.append(&obs(ts)).unwrap();
        }
        // Segments start at ts 0, 2, 4. A checkpoint covering ts < 3
        // releases only the first.
        assert_eq!(wal.truncate_covered(3).unwrap(), 1);
        assert_eq!(wal.segment_count(), 2);
        // Covering everything still keeps the newest (append target).
        assert_eq!(wal.truncate_covered(6).unwrap(), 1);
        assert_eq!(wal.segment_count(), 1);
        drop(wal);
        let (_, rec) = open(dir.path(), FsyncPolicy::Off, seg_bytes);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0].timestamp, 4);
    }

    #[test]
    fn batched_policy_syncs_every_n() {
        let dir = ScratchDir::new("velox-wal");
        let (mut wal, _) = open(dir.path(), FsyncPolicy::Batched { every: 4 }, 1 << 20);
        for ts in 0..9 {
            wal.append(&obs(ts)).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends.get(), 9);
        assert_eq!(stats.fsyncs.get(), 2, "9 appends at every=4 → 2 syncs");
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs.get(), 3);
    }

    #[test]
    fn a_failed_fsync_poisons_the_log_for_good() {
        let dir = ScratchDir::new("velox-wal");
        let (mut wal, _) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        wal.append(&obs(0)).unwrap();
        wal.write(&obs(1)).unwrap();
        assert_eq!(wal.check(), Ok(()));
        wal.fail_syncs.store(true, Ordering::Relaxed);
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("injected fdatasync failure"), "{err}");
        // The disk "recovers", but the log never trusts another sync: the
        // same error, no fdatasync issued, no write accepted.
        wal.fail_syncs.store(false, Ordering::Relaxed);
        assert_eq!(wal.check().unwrap_err(), err);
        assert_eq!(wal.sync().unwrap_err(), err);
        assert_eq!(wal.write(&obs(2)).unwrap_err(), err);
        assert_eq!(wal.append(&obs(2)).unwrap_err(), err);
        assert_eq!(wal.stats().fsyncs.get(), 1, "only the first record's sync ran");
        assert_eq!(wal.stats().appends.get(), 2);
    }

    #[test]
    fn preallocated_zeros_read_as_the_clean_end_and_drop_trims_them() {
        let dir = ScratchDir::new("velox-wal");
        let path = segment_path(dir.path(), 0);
        let (mut wal, _) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        for ts in 0..3 {
            wal.append(&obs(ts)).unwrap();
        }
        let data = (HEADER_LEN + 3 * RECORD_LEN) as u64;
        let ahead = data + (PREALLOC_RECORDS - 3) * RECORD_LEN as u64;
        assert_eq!(fs::metadata(&path).unwrap().len(), ahead);

        // A crash now leaves the zeros: the scan stops there, cleanly, and
        // the next record goes where the zeros began.
        let crashed = ScratchDir::new("velox-wal");
        fs::copy(&path, segment_path(crashed.path(), 0)).unwrap();
        let (mut revived, rec) = open(crashed.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records, (0..3).map(obs).collect::<Vec<_>>());
        assert!(rec.torn.is_none(), "{:?}", rec.torn);
        revived.append(&obs(3)).unwrap();
        drop(revived);
        let (_, rec) = open(crashed.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records, (0..4).map(obs).collect::<Vec<_>>());

        drop(wal);
        assert_eq!(fs::metadata(&path).unwrap().len(), data, "a clean close holds its records");
    }

    #[test]
    fn a_segment_another_handle_appends_to_is_left_to_it() {
        let dir = ScratchDir::new("velox-wal");
        let (mut first, _) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        first.append(&obs(0)).unwrap();
        let (mut second, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records, vec![obs(0)]);
        second.append(&obs(1)).unwrap();
        assert_eq!(second.segment_count(), 2, "the second handle rotated to its own segment");
        drop(second);
        drop(first);
        let (_, rec) = open(dir.path(), FsyncPolicy::PerRecord, 1 << 20);
        assert_eq!(rec.records, vec![obs(0), obs(1)]);
        assert!(rec.torn.is_none(), "{:?}", rec.torn);
    }

    #[test]
    fn open_never_panics_on_garbage_files() {
        let dir = ScratchDir::new("velox-wal");
        fs::write(segment_path(dir.path(), 0), b"definitely not a wal segment").unwrap();
        let (_, rec) = open(dir.path(), FsyncPolicy::Off, 1 << 20);
        assert!(rec.records.is_empty());
        assert!(rec.torn.is_some());
    }
}
