//! RPC message set and binary wire encoding.
//!
//! One frame carries one message. The payload is a `u8` tag followed by
//! big-endian fixed-width fields; vectors are length-prefixed (`u32`
//! count). Shipped log records use the WAL's own payload order
//! (`timestamp, uid, item_id, y` — see `velox-storage::wal`), so a record
//! read back from disk and a record on the wire are byte-identical.
//!
//! The RPC set is the paper's serving interface plus the replication
//! plane: `Predict` / `Observe` / `FetchWeights` for the model, `ShipLog`
//! / `PullLog` for WAL log shipping, `SeedItems` / `PutWeights` for the
//! management plane, and `Health` for liveness probes.

use velox_cluster::{PartitionError, PartitionMap};
use velox_storage::Observation;

/// Wire tag values for [`Request`] variants.
mod req_tag {
    pub const PREDICT: u8 = 1;
    pub const OBSERVE: u8 = 2;
    pub const FETCH_WEIGHTS: u8 = 3;
    pub const SHIP_LOG: u8 = 4;
    pub const PULL_LOG: u8 = 5;
    pub const SEED_ITEMS: u8 = 6;
    pub const PUT_WEIGHTS: u8 = 7;
    pub const HEALTH: u8 = 8;
    pub const GET_MAP: u8 = 9;
    pub const INSTALL_MAP: u8 = 10;
    // 11 was the one-shot `PullPartition`; the chunk stream replaced it.
    pub const PUSH_PARTITION: u8 = 12;
    pub const PULL_PARTITION_CHUNK: u8 = 13;
    pub const PREDICT_BATCH: u8 = 14;
}

/// Wire tag values for [`Response`] variants.
mod resp_tag {
    pub const PREDICTED: u8 = 1;
    pub const OBSERVED: u8 = 2;
    pub const WEIGHTS: u8 = 3;
    pub const LOG: u8 = 4;
    pub const OK: u8 = 5;
    pub const ERROR: u8 = 6;
    pub const MAP: u8 = 7;
    // 8 was `Partition`, the answer to the one-shot `PullPartition`.
    pub const PARTITION_CHUNK: u8 = 9;
    pub const PREDICTED_BATCH: u8 = 10;
}

/// Why a node refused a request (carried in [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No live replica can serve the key (degrade or retry elsewhere).
    Unavailable,
    /// The request was malformed or addressed to the wrong node.
    BadRequest,
    /// The node hit an internal failure (e.g. its WAL append failed).
    Internal,
    /// The server shed the connection before dispatch (accept queue
    /// full). Nothing was applied; retry after backoff.
    Overloaded,
    /// The request was stamped with a stale partition-map epoch. Nothing
    /// was applied; refresh the map (`GetMap`) and retry.
    WrongEpoch,
}

impl ErrorCode {
    fn encode(self) -> u8 {
        match self {
            ErrorCode::Unavailable => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::WrongEpoch => 5,
        }
    }

    fn decode(v: u8) -> Result<Self, DecodeError> {
        match v {
            1 => Ok(ErrorCode::Unavailable),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Internal),
            4 => Ok(ErrorCode::Overloaded),
            5 => Ok(ErrorCode::WrongEpoch),
            other => Err(DecodeError(format!("unknown error code {other}"))),
        }
    }
}

/// A request frame, client → node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score `item_id` for `uid`. A node that does not own the user's
    /// partition forwards one hop to the owner unless `no_forward` is set
    /// (set on the forwarded leg to make loops impossible).
    Predict {
        /// User whose weight vector scores the item.
        uid: u64,
        /// Item to score.
        item_id: u64,
        /// Answer locally even if this node is not the owner.
        no_forward: bool,
        /// Sender's partition-map epoch. A node whose map is at a
        /// different epoch rejects with [`ErrorCode::WrongEpoch`];
        /// `0` means "unstamped" and bypasses the check (server-internal
        /// hops and pre-membership tooling).
        epoch: u64,
    },
    /// Apply one online observation at the owning node.
    Observe {
        /// User whose model updates.
        uid: u64,
        /// Observed item.
        item_id: u64,
        /// Supervised label.
        y: f64,
        /// Apply locally even if this node is not the owner (failover
        /// writes and the forwarded leg).
        no_forward: bool,
        /// Caller-chosen observation id for exactly-once application: a
        /// node remembers recent ids and answers a replayed id with the
        /// original ack instead of a second weight update. `0` opts out.
        obs_id: u64,
        /// Sender's partition-map epoch (`0` = unstamped, skip the check).
        epoch: u64,
    },
    /// Management-plane read of a user's current weights.
    FetchWeights {
        /// User to look up.
        uid: u64,
    },
    /// Replication plane: the owner ships acknowledged log records to a
    /// replica, which applies and persists them.
    ShipLog {
        /// Acknowledged records in owner log order.
        records: Vec<Observation>,
        /// Observation id of each record, parallel to `records` (`0` for
        /// records without one). Replicas feed these into their dedupe
        /// window so an ack-lost retry that lands on a promoted replica
        /// after a cutover is suppressed, not applied twice.
        obs_ids: Vec<u64>,
    },
    /// Recovery plane: fetch every log record with `timestamp ≥ from_ts`
    /// that this node holds (its own writes plus records shipped to it).
    PullLog {
        /// Inclusive lower bound on record timestamps.
        from_ts: u64,
    },
    /// Management plane: install item feature vectors (full copy).
    SeedItems {
        /// `(item_id, features)` pairs.
        entries: Vec<(u64, Vec<f64>)>,
    },
    /// Management plane: install a user's weight vector directly.
    PutWeights {
        /// User to install.
        uid: u64,
        /// The weight vector.
        w: Vec<f64>,
    },
    /// Liveness probe.
    Health,
    /// Membership plane: fetch the node's current partition map.
    GetMap,
    /// Membership plane: install a partition map if it is newer than the
    /// node's current one (idempotent for replayed frames). This is the
    /// cutover frame: the payload carries the map followed by a TLV
    /// extension section; unknown TLV types are skipped so older nodes
    /// survive frames from newer tooling.
    InstallMap {
        /// The epoch-stamped map to adopt.
        map: PartitionMap,
    },
    /// Migration plane: bulk-install user weight vectors pulled as one
    /// checkpoint chunk (the checkpoint stream sink).
    PushPartition {
        /// `(uid, weights)` pairs.
        entries: Vec<(u64, Vec<f64>)>,
    },
    /// Migration plane: one bounded step of a resumable checkpoint
    /// stream. The source returns every held `(uid, weights)` pair of
    /// `partition` with `uid ≥ cursor` in ascending uid order, stopping
    /// once the encoded entries would exceed `max_bytes` (at least one
    /// entry is always returned so oversized vectors cannot wedge the
    /// stream). Idempotent: re-sending the same cursor after a dropped or
    /// reset link replays the same chunk, which is how a migrator resumes
    /// mid-transfer without restarting from zero.
    PullPartitionChunk {
        /// The virtual partition being streamed.
        partition: u32,
        /// Exclusive-lower-bound resume point: only uids `≥ cursor` are
        /// returned. `0` starts the stream.
        cursor: u64,
        /// Soft bound on the encoded entry bytes per chunk (the in-flight
        /// budget; also bounds the response frame size).
        max_bytes: u32,
    },
    /// Serving plane: score many `(uid, item_id)` pairs in one frame —
    /// the serving tier's adaptive batches amortize the round trip this
    /// way. The sender groups pairs by owning node under its map; the
    /// receiver answers every pair from local state (no forwarding), in
    /// request order.
    PredictBatch {
        /// `(uid, item_id)` pairs to score.
        pairs: Vec<(u64, u64)>,
        /// Sender's partition-map epoch (`0` = unstamped, skip the
        /// check).
        epoch: u64,
    },
}

/// One `(uid, item_id)` outcome inside a [`Response::PredictedBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchScore {
    /// False when the node could not score the pair (e.g. the item is
    /// not seeded there); the caller retries it on the single-predict
    /// path for a precise error.
    pub ok: bool,
    /// The score `wᵤ·x` (`0.0` when `!ok`).
    pub score: f64,
    /// True when the user had no weights and the zero prior scored.
    pub cold_start: bool,
}

/// A response frame, node → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Predict`].
    Predicted {
        /// The score `wᵤ·x`.
        score: f64,
        /// Node that computed the score.
        node: u32,
        /// True when the request took the forwarding hop to the owner.
        forwarded: bool,
        /// True when the user had no weights and the zero prior scored.
        cold_start: bool,
    },
    /// Answer to [`Request::Observe`]: the acknowledgement.
    Observed {
        /// Node that applied the update.
        node: u32,
        /// Logical timestamp the owner assigned to the record.
        ts: u64,
        /// Replicas the record was shipped to before this ack.
        shipped_to: u32,
    },
    /// Answer to [`Request::FetchWeights`].
    Weights {
        /// The vector, or `None` for a never-observed user.
        w: Option<Vec<f64>>,
    },
    /// Answer to [`Request::PullLog`].
    Log {
        /// Matching records in timestamp order.
        records: Vec<Observation>,
    },
    /// Answer to [`Request::GetMap`].
    Map {
        /// The node's current partition map.
        map: PartitionMap,
    },
    /// Answer to [`Request::PullPartitionChunk`]: one bounded chunk of
    /// the stream, integrity-checked end to end. The frame ends with a
    /// TLV extension section (empty today) so future senders can attach
    /// metadata without breaking old receivers.
    PartitionChunk {
        /// `(uid, weights)` pairs, ascending by uid, all `≥` the request
        /// cursor.
        entries: Vec<(u64, Vec<f64>)>,
        /// Cursor to present on the next pull (first uid not included in
        /// this chunk). Meaningless when `done`.
        next_cursor: u64,
        /// True when the stream is exhausted: no held uid of the
        /// partition is `≥ next_cursor`.
        done: bool,
        /// CRC-32 over the encoded `entries · next_cursor · done` fields
        /// (see [`chunk_crc`]) — a bit flip anywhere in the chunk body,
        /// cursor, or done flag fails verification before anything is
        /// applied.
        crc: u32,
    },
    /// Answer to [`Request::PredictBatch`]: one outcome per pair, in
    /// request order.
    PredictedBatch {
        /// Node that computed the scores.
        node: u32,
        /// Per-pair outcomes.
        scores: Vec<BatchScore>,
    },
    /// Generic success (ship, seed, put, install, push, health).
    Ok,
    /// The request failed at the node.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Wire cost of one `(uid, weights)` entry inside a chunk: `uid u64 ·
/// count u32 · count × f64`. The chunk budget and the source's stopping
/// rule both use this, so "no frame exceeds the bound" is checkable.
pub fn chunk_entry_bytes(dim: usize) -> usize {
    8 + 4 + 8 * dim
}

/// Integrity checksum for a [`Response::PartitionChunk`]: CRC-32 over the
/// canonically encoded `entries`, `next_cursor`, and `done` fields. The
/// cursor and done flag are covered on purpose — a bit flip that would
/// silently skip or rewind the stream fails the check the same way a
/// flipped weight byte does.
pub fn chunk_crc(entries: &[(u64, Vec<f64>)], next_cursor: u64, done: bool) -> u32 {
    let mut buf = Vec::with_capacity(16 + entries.len() * 16);
    put_entries(&mut buf, entries);
    put_u64(&mut buf, next_cursor);
    buf.push(done as u8);
    velox_storage::crc32(&buf)
}

/// Fixed encoding overhead of a [`Response::PartitionChunk`] beyond its
/// entries: response tag, entry count, `next_cursor`, `done`, `crc`, and
/// the empty TLV-section count. [`build_chunk`] charges this against the
/// byte budget so the *whole encoded frame* honours `max_bytes`, not
/// just the entry payload.
pub const CHUNK_ENVELOPE_BYTES: usize = 1 + 4 + 8 + 1 + 4 + 4;

/// Builds one bounded chunk of a partition checkpoint stream from
/// `entries`, the **uid-ascending** full entry set of the partition:
/// takes pairs with `uid ≥ cursor` while the encoded frame (envelope
/// included) stays within `max_bytes` (always at least one entry, so an
/// oversized vector cannot wedge the stream), and stamps the result with
/// its CRC.
pub fn build_chunk(entries: &[(u64, Vec<f64>)], cursor: u64, max_bytes: u32) -> Response {
    let start = entries.partition_point(|(uid, _)| *uid < cursor);
    let mut taken = 0usize;
    let mut size = CHUNK_ENVELOPE_BYTES;
    for (uid, w) in &entries[start..] {
        let cost = chunk_entry_bytes(w.len());
        if taken > 0 && size + cost > max_bytes as usize {
            break;
        }
        debug_assert!(*uid >= cursor);
        size += cost;
        taken += 1;
    }
    let chunk = &entries[start..start + taken];
    let done = start + taken == entries.len();
    let next_cursor = chunk.last().map_or(cursor, |(uid, _)| uid + 1);
    let crc = chunk_crc(chunk, next_cursor, done);
    Response::PartitionChunk { entries: chunk.to_vec(), next_cursor, done, crc }
}

/// Receiver-side admission check for a [`Response::PartitionChunk`],
/// run **before** any entry is applied: the CRC must match, uids must be
/// strictly ascending and `≥ cursor` (no duplicated or reordered chunk
/// can smuggle a repeat application), and the stream must advance
/// (`next_cursor` past every delivered uid and past `cursor` unless the
/// stream is done and empty). Returns the reason the chunk is
/// inadmissible, or `None` when it is safe to apply.
pub fn verify_chunk(
    cursor: u64,
    entries: &[(u64, Vec<f64>)],
    next_cursor: u64,
    done: bool,
    crc: u32,
) -> Option<String> {
    let expect = chunk_crc(entries, next_cursor, done);
    if crc != expect {
        return Some(format!("chunk crc mismatch: got {crc:#010x}, want {expect:#010x}"));
    }
    let mut prev: Option<u64> = None;
    for (uid, _) in entries {
        if *uid < cursor {
            return Some(format!("chunk replays uid {uid} below cursor {cursor}"));
        }
        if let Some(p) = prev {
            if *uid <= p {
                return Some(format!("chunk uids not strictly ascending at {uid}"));
            }
        }
        prev = Some(*uid);
    }
    if let Some(last) = prev {
        if next_cursor <= last {
            return Some(format!("next_cursor {next_cursor} does not pass delivered uid {last}"));
        }
    }
    if !done && entries.is_empty() {
        return Some("chunk is empty but the stream claims more data".into());
    }
    if !done && next_cursor <= cursor {
        return Some(format!(
            "stream does not advance: next_cursor {next_cursor} ≤ cursor {cursor}"
        ));
    }
    None
}

/// A message payload that could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rpc decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_vec_f64(buf: &mut Vec<u8>, v: &[f64]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_f64(buf, x);
    }
}

fn put_observation(buf: &mut Vec<u8>, obs: &Observation) {
    put_u64(buf, obs.timestamp);
    put_u64(buf, obs.uid);
    put_u64(buf, obs.item_id);
    put_f64(buf, obs.y);
}

fn put_entries(buf: &mut Vec<u8>, entries: &[(u64, Vec<f64>)]) {
    put_u32(buf, entries.len() as u32);
    for (id, v) in entries {
        put_u64(buf, *id);
        put_vec_f64(buf, v);
    }
}

/// Map wire layout: `epoch u64 · salt u64 · replication u32 · members
/// (count + u32 each) · partitions count · owners (u32 each) · replica
/// sets (count + u32 each, one set per partition)`. Decoding revalidates
/// through [`PartitionMap::from_parts`], so a corrupt frame can never
/// install a structurally broken map.
fn put_map(buf: &mut Vec<u8>, map: &PartitionMap) {
    put_u64(buf, map.epoch());
    put_u64(buf, map.salt());
    put_u32(buf, map.replication() as u32);
    put_u32(buf, map.members().len() as u32);
    for &m in map.members() {
        put_u32(buf, m as u32);
    }
    put_u32(buf, map.n_partitions());
    for p in 0..map.n_partitions() {
        put_u32(buf, map.owner_of_partition(p) as u32);
    }
    for p in 0..map.n_partitions() {
        let set = map.replicas_of_partition(p);
        put_u32(buf, set.len() as u32);
        for &n in set {
            put_u32(buf, n as u32);
        }
    }
}

/// Bounded cursor over a payload; every read is checked.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        // Canonical encoding only: anything but 0/1 is corruption, not a
        // creative truthy value (keeps re-encoding byte-exact for CRCs).
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError(format!("non-canonical bool byte {other:#04x}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Checked element count: rejects counts whose encoding could not fit
    /// in the remaining payload (corrupt counts would otherwise allocate).
    fn count(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.pos {
            return Err(DecodeError(format!("element count {n} exceeds payload")));
        }
        Ok(n)
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn observation(&mut self) -> Result<Observation, DecodeError> {
        Ok(Observation {
            timestamp: self.u64()?,
            uid: self.u64()?,
            item_id: self.u64()?,
            y: self.f64()?,
        })
    }

    fn entries(&mut self) -> Result<Vec<(u64, Vec<f64>)>, DecodeError> {
        let n = self.count(12)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.u64()?;
            entries.push((id, self.vec_f64()?));
        }
        Ok(entries)
    }

    fn map(&mut self) -> Result<PartitionMap, DecodeError> {
        let epoch = self.u64()?;
        let salt = self.u64()?;
        let replication = self.u32()? as usize;
        let n_members = self.count(4)?;
        let members = (0..n_members)
            .map(|_| self.u32().map(|m| m as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let n_parts = self.count(4)?;
        let owners =
            (0..n_parts).map(|_| self.u32().map(|o| o as usize)).collect::<Result<Vec<_>, _>>()?;
        let mut replicas = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let k = self.count(4)?;
            replicas
                .push((0..k).map(|_| self.u32().map(|r| r as usize)).collect::<Result<_, _>>()?);
        }
        PartitionMap::from_parts(epoch, salt, replication, members, owners, replicas)
            .map_err(|e: PartitionError| DecodeError(format!("invalid map: {e}")))
    }

    /// Skips a TLV extension section: `count u32`, then per entry a
    /// `type u8 · len u32 · len bytes` triple. Unknown types are legal
    /// (skipped); a length past the payload end is not.
    fn skip_tlvs(&mut self) -> Result<(), DecodeError> {
        let n = self.count(5)?;
        for _ in 0..n {
            let _ty = self.u8()?;
            let len = self.count(1)?;
            self.take(len)?;
        }
        Ok(())
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Request {
    /// Serializes the request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Request::Predict { uid, item_id, no_forward, epoch } => {
                buf.push(req_tag::PREDICT);
                put_u64(&mut buf, *uid);
                put_u64(&mut buf, *item_id);
                buf.push(*no_forward as u8);
                put_u64(&mut buf, *epoch);
            }
            Request::Observe { uid, item_id, y, no_forward, obs_id, epoch } => {
                buf.push(req_tag::OBSERVE);
                put_u64(&mut buf, *uid);
                put_u64(&mut buf, *item_id);
                put_f64(&mut buf, *y);
                buf.push(*no_forward as u8);
                put_u64(&mut buf, *obs_id);
                put_u64(&mut buf, *epoch);
            }
            Request::FetchWeights { uid } => {
                buf.push(req_tag::FETCH_WEIGHTS);
                put_u64(&mut buf, *uid);
            }
            Request::ShipLog { records, obs_ids } => {
                buf.push(req_tag::SHIP_LOG);
                debug_assert_eq!(records.len(), obs_ids.len());
                put_u32(&mut buf, records.len() as u32);
                for (rec, id) in records.iter().zip(obs_ids) {
                    put_observation(&mut buf, rec);
                    put_u64(&mut buf, *id);
                }
            }
            Request::PullLog { from_ts } => {
                buf.push(req_tag::PULL_LOG);
                put_u64(&mut buf, *from_ts);
            }
            Request::SeedItems { entries } => {
                buf.push(req_tag::SEED_ITEMS);
                put_u32(&mut buf, entries.len() as u32);
                for (item_id, x) in entries {
                    put_u64(&mut buf, *item_id);
                    put_vec_f64(&mut buf, x);
                }
            }
            Request::PutWeights { uid, w } => {
                buf.push(req_tag::PUT_WEIGHTS);
                put_u64(&mut buf, *uid);
                put_vec_f64(&mut buf, w);
            }
            Request::Health => buf.push(req_tag::HEALTH),
            Request::GetMap => buf.push(req_tag::GET_MAP),
            Request::InstallMap { map } => {
                buf.push(req_tag::INSTALL_MAP);
                put_map(&mut buf, map);
                // Empty TLV extension section (see `Cursor::skip_tlvs`).
                put_u32(&mut buf, 0);
            }
            Request::PushPartition { entries } => {
                buf.push(req_tag::PUSH_PARTITION);
                put_entries(&mut buf, entries);
            }
            Request::PullPartitionChunk { partition, cursor, max_bytes } => {
                buf.push(req_tag::PULL_PARTITION_CHUNK);
                put_u32(&mut buf, *partition);
                put_u64(&mut buf, *cursor);
                put_u32(&mut buf, *max_bytes);
            }
            Request::PredictBatch { pairs, epoch } => {
                buf.push(req_tag::PREDICT_BATCH);
                put_u32(&mut buf, pairs.len() as u32);
                for (uid, item_id) in pairs {
                    put_u64(&mut buf, *uid);
                    put_u64(&mut buf, *item_id);
                }
                put_u64(&mut buf, *epoch);
            }
        }
        buf
    }

    /// Parses a frame payload into a request.
    pub fn decode(buf: &[u8]) -> Result<Request, DecodeError> {
        let mut c = Cursor::new(buf);
        let req = match c.u8()? {
            req_tag::PREDICT => Request::Predict {
                uid: c.u64()?,
                item_id: c.u64()?,
                no_forward: c.bool()?,
                epoch: c.u64()?,
            },
            req_tag::OBSERVE => Request::Observe {
                uid: c.u64()?,
                item_id: c.u64()?,
                y: c.f64()?,
                no_forward: c.bool()?,
                obs_id: c.u64()?,
                epoch: c.u64()?,
            },
            req_tag::FETCH_WEIGHTS => Request::FetchWeights { uid: c.u64()? },
            req_tag::SHIP_LOG => {
                let n = c.count(40)?;
                let mut records = Vec::with_capacity(n);
                let mut obs_ids = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(c.observation()?);
                    obs_ids.push(c.u64()?);
                }
                Request::ShipLog { records, obs_ids }
            }
            req_tag::PULL_LOG => Request::PullLog { from_ts: c.u64()? },
            req_tag::SEED_ITEMS => Request::SeedItems { entries: c.entries()? },
            req_tag::PUT_WEIGHTS => Request::PutWeights { uid: c.u64()?, w: c.vec_f64()? },
            req_tag::HEALTH => Request::Health,
            req_tag::GET_MAP => Request::GetMap,
            req_tag::INSTALL_MAP => {
                let map = c.map()?;
                c.skip_tlvs()?;
                Request::InstallMap { map }
            }
            req_tag::PUSH_PARTITION => Request::PushPartition { entries: c.entries()? },
            req_tag::PULL_PARTITION_CHUNK => Request::PullPartitionChunk {
                partition: c.u32()?,
                cursor: c.u64()?,
                max_bytes: c.u32()?,
            },
            req_tag::PREDICT_BATCH => {
                let n = c.count(16)?;
                let pairs =
                    (0..n).map(|_| Ok((c.u64()?, c.u64()?))).collect::<Result<_, DecodeError>>()?;
                Request::PredictBatch { pairs, epoch: c.u64()? }
            }
            other => return Err(DecodeError(format!("unknown request tag {other}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes the response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Response::Predicted { score, node, forwarded, cold_start } => {
                buf.push(resp_tag::PREDICTED);
                put_f64(&mut buf, *score);
                put_u32(&mut buf, *node);
                buf.push(*forwarded as u8);
                buf.push(*cold_start as u8);
            }
            Response::Observed { node, ts, shipped_to } => {
                buf.push(resp_tag::OBSERVED);
                put_u32(&mut buf, *node);
                put_u64(&mut buf, *ts);
                put_u32(&mut buf, *shipped_to);
            }
            Response::Weights { w } => {
                buf.push(resp_tag::WEIGHTS);
                match w {
                    Some(w) => {
                        buf.push(1);
                        put_vec_f64(&mut buf, w);
                    }
                    None => buf.push(0),
                }
            }
            Response::Log { records } => {
                buf.push(resp_tag::LOG);
                put_u32(&mut buf, records.len() as u32);
                for rec in records {
                    put_observation(&mut buf, rec);
                }
            }
            Response::Map { map } => {
                buf.push(resp_tag::MAP);
                put_map(&mut buf, map);
            }
            Response::PartitionChunk { entries, next_cursor, done, crc } => {
                buf.push(resp_tag::PARTITION_CHUNK);
                put_entries(&mut buf, entries);
                put_u64(&mut buf, *next_cursor);
                buf.push(*done as u8);
                put_u32(&mut buf, *crc);
                // Empty TLV extension section (see `Cursor::skip_tlvs`).
                put_u32(&mut buf, 0);
            }
            Response::PredictedBatch { node, scores } => {
                buf.push(resp_tag::PREDICTED_BATCH);
                put_u32(&mut buf, *node);
                put_u32(&mut buf, scores.len() as u32);
                for s in scores {
                    buf.push(s.ok as u8 | (s.cold_start as u8) << 1);
                    put_f64(&mut buf, s.score);
                }
            }
            Response::Ok => buf.push(resp_tag::OK),
            Response::Error { code, message } => {
                buf.push(resp_tag::ERROR);
                buf.push(code.encode());
                let bytes = message.as_bytes();
                put_u32(&mut buf, bytes.len() as u32);
                buf.extend_from_slice(bytes);
            }
        }
        buf
    }

    /// Parses a frame payload into a response.
    pub fn decode(buf: &[u8]) -> Result<Response, DecodeError> {
        let mut c = Cursor::new(buf);
        let resp = match c.u8()? {
            resp_tag::PREDICTED => Response::Predicted {
                score: c.f64()?,
                node: c.u32()?,
                forwarded: c.bool()?,
                cold_start: c.bool()?,
            },
            resp_tag::OBSERVED => {
                Response::Observed { node: c.u32()?, ts: c.u64()?, shipped_to: c.u32()? }
            }
            resp_tag::WEIGHTS => {
                let present = c.bool()?;
                Response::Weights { w: if present { Some(c.vec_f64()?) } else { None } }
            }
            resp_tag::LOG => {
                let n = c.count(32)?;
                let records = (0..n).map(|_| c.observation()).collect::<Result<_, _>>()?;
                Response::Log { records }
            }
            resp_tag::MAP => Response::Map { map: c.map()? },
            resp_tag::PARTITION_CHUNK => {
                let entries = c.entries()?;
                let next_cursor = c.u64()?;
                let done = c.bool()?;
                let crc = c.u32()?;
                c.skip_tlvs()?;
                Response::PartitionChunk { entries, next_cursor, done, crc }
            }
            resp_tag::PREDICTED_BATCH => {
                let node = c.u32()?;
                let n = c.count(9)?;
                let scores = (0..n)
                    .map(|_| {
                        let flags = c.u8()?;
                        Ok(BatchScore {
                            ok: flags & 1 != 0,
                            score: c.f64()?,
                            cold_start: flags & 2 != 0,
                        })
                    })
                    .collect::<Result<_, DecodeError>>()?;
                Response::PredictedBatch { node, scores }
            }
            resp_tag::OK => Response::Ok,
            resp_tag::ERROR => {
                let code = ErrorCode::decode(c.u8()?)?;
                let n = c.count(1)?;
                let message = String::from_utf8(c.take(n)?.to_vec())
                    .map_err(|_| DecodeError("error message is not utf-8".into()))?;
                Response::Error { code, message }
            }
            other => return Err(DecodeError(format!("unknown response tag {other}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ts: u64) -> Observation {
        Observation { uid: ts * 7, item_id: ts * 13, y: ts as f64 * 0.5, timestamp: ts }
    }

    fn sample_map() -> PartitionMap {
        PartitionMap::bootstrap(3, 2, 0xC0FFEE).unwrap().with_member(3).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Predict { uid: 1, item_id: 2, no_forward: false, epoch: 7 },
            Request::Observe {
                uid: 3,
                item_id: 4,
                y: -1.5,
                no_forward: true,
                obs_id: 77,
                epoch: 0,
            },
            Request::FetchWeights { uid: u64::MAX },
            Request::ShipLog { records: vec![obs(1), obs(2), obs(3)], obs_ids: vec![9, 0, 11] },
            Request::ShipLog { records: vec![], obs_ids: vec![] },
            Request::PullLog { from_ts: 42 },
            Request::SeedItems { entries: vec![(9, vec![1.0, 2.0]), (10, vec![])] },
            Request::PutWeights { uid: 5, w: vec![0.25, -0.5, 1e300] },
            Request::Health,
            Request::GetMap,
            Request::InstallMap { map: sample_map() },
            Request::PushPartition { entries: vec![(1, vec![0.5]), (2, vec![])] },
            Request::PullPartitionChunk { partition: 5, cursor: 1 << 40, max_bytes: 4096 },
            Request::PredictBatch { pairs: vec![(1, 2), (u64::MAX, 0), (1, 2)], epoch: 9 },
            Request::PredictBatch { pairs: vec![], epoch: 0 },
        ];
        for req in cases {
            let buf = req.encode();
            assert_eq!(Request::decode(&buf).unwrap(), req, "round trip failed");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Predicted { score: 0.75, node: 2, forwarded: true, cold_start: false },
            Response::Observed { node: 0, ts: 99, shipped_to: 2 },
            Response::Weights { w: Some(vec![1.0, 2.0, 3.0]) },
            Response::Weights { w: None },
            Response::Log { records: vec![obs(5)] },
            Response::Map { map: sample_map() },
            {
                let entries = vec![(8u64, vec![1.0, -2.0]), (11, vec![0.5])];
                let crc = chunk_crc(&entries, 12, false);
                Response::PartitionChunk { entries, next_cursor: 12, done: false, crc }
            },
            Response::PartitionChunk { entries: vec![], next_cursor: 0, done: true, crc: 7 },
            Response::PredictedBatch {
                node: 1,
                scores: vec![
                    BatchScore { ok: true, score: -0.25, cold_start: false },
                    BatchScore { ok: false, score: 0.0, cold_start: false },
                    BatchScore { ok: true, score: 0.0, cold_start: true },
                ],
            },
            Response::PredictedBatch { node: 0, scores: vec![] },
            Response::Ok,
            Response::Error { code: ErrorCode::WrongEpoch, message: "stale epoch 3".into() },
        ];
        for resp in cases {
            let buf = resp.encode();
            assert_eq!(Response::decode(&buf).unwrap(), resp, "round trip failed");
        }
    }

    /// Tags 11 (request) and 8 (response) belonged to the one-shot
    /// partition checkpoint; they stay unassigned so an old peer's frame
    /// is refused instead of misread.
    #[test]
    fn retired_tags_stay_unassigned() {
        assert!(Request::decode(&[11, 0, 0, 0, 7]).is_err());
        assert!(Response::decode(&[8, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Request::Health.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let buf =
            Request::Observe { uid: 1, item_id: 2, y: 3.0, no_forward: false, obs_id: 9, epoch: 4 }
                .encode();
        for cut in 0..buf.len() {
            assert!(Request::decode(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_count_rejected_without_allocation() {
        // ShipLog claiming u32::MAX records in a 9-byte payload.
        let mut buf = vec![4u8]; // SHIP_LOG
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn install_map_skips_unknown_tlvs() {
        // Rebuild the frame with a non-empty TLV tail: one unknown type.
        let map = sample_map();
        let mut buf = Request::InstallMap { map: map.clone() }.encode();
        buf.truncate(buf.len() - 4); // drop the empty TLV count
        buf.extend_from_slice(&1u32.to_be_bytes()); // one TLV
        buf.push(0xEE); // unknown type
        buf.extend_from_slice(&3u32.to_be_bytes()); // 3-byte value
        buf.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Request::decode(&buf).unwrap(), Request::InstallMap { map });
    }

    /// uid-sorted sample partition: 6 entries of dim 2.
    fn chunk_entries() -> Vec<(u64, Vec<f64>)> {
        (0..6u64).map(|i| (i * 10 + 3, vec![i as f64, -(i as f64)])).collect()
    }

    #[test]
    fn build_chunk_respects_budget_and_resumes_idempotently() {
        let entries = chunk_entries();
        let per_entry = chunk_entry_bytes(2);
        // Budget for exactly two entries per chunk, envelope included.
        let budget = (CHUNK_ENVELOPE_BYTES + 2 * per_entry) as u32;
        let mut cursor = 0u64;
        let mut collected = Vec::new();
        let mut chunks = 0;
        loop {
            let Response::PartitionChunk { entries: got, next_cursor, done, crc } =
                build_chunk(&entries, cursor, budget)
            else {
                unreachable!()
            };
            assert!(verify_chunk(cursor, &got, next_cursor, done, crc).is_none());
            assert!(got.len() <= 2, "budget holds");
            let frame =
                Response::PartitionChunk { entries: got.clone(), next_cursor, done, crc }.encode();
            assert!(frame.len() <= budget as usize, "the whole encoded frame honours the budget");
            // Replaying the same cursor yields the identical chunk (the
            // resume path after a dropped link).
            assert_eq!(
                build_chunk(&entries, cursor, budget),
                Response::PartitionChunk { entries: got.clone(), next_cursor, done, crc }
            );
            collected.extend(got);
            chunks += 1;
            cursor = next_cursor;
            if done {
                break;
            }
        }
        assert_eq!(chunks, 3);
        assert_eq!(collected, entries, "stream reassembles the partition exactly");
    }

    #[test]
    fn build_chunk_never_wedges_on_oversized_entry() {
        let entries = vec![(1u64, vec![0.0; 100]), (2, vec![0.0; 100])];
        let Response::PartitionChunk { entries: got, done, .. } = build_chunk(&entries, 0, 16)
        else {
            unreachable!()
        };
        assert_eq!(got.len(), 1, "at least one entry always moves");
        assert!(!done);
    }

    #[test]
    fn verify_chunk_rejects_tampered_fields() {
        let entries = chunk_entries();
        let crc = chunk_crc(&entries, 54, true);
        assert!(verify_chunk(0, &entries, 54, true, crc).is_none());
        // Flipped CRC.
        assert!(verify_chunk(0, &entries, 54, true, crc ^ 1).is_some());
        // Tampered cursor (CRC covers it).
        assert!(verify_chunk(0, &entries, 55, true, crc).is_some());
        // Tampered done flag.
        assert!(verify_chunk(0, &entries, 54, false, crc).is_some());
        // Reordered entries fail even with a freshly computed CRC.
        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        let crc2 = chunk_crc(&swapped, 54, true);
        assert!(verify_chunk(0, &swapped, 54, true, crc2).is_some());
        // Duplicated entry likewise.
        let mut duped = entries.clone();
        duped.insert(1, duped[0].clone());
        let crc3 = chunk_crc(&duped, 54, true);
        assert!(verify_chunk(0, &duped, 54, true, crc3).is_some());
        // Replay below the cursor is refused even when self-consistent.
        assert!(verify_chunk(100, &entries, 54, true, crc).is_some());
    }

    #[test]
    fn partition_chunk_skips_unknown_tlvs() {
        let entries = vec![(4u64, vec![1.5])];
        let crc = chunk_crc(&entries, 5, true);
        let resp = Response::PartitionChunk { entries, next_cursor: 5, done: true, crc };
        let mut buf = resp.encode();
        buf.truncate(buf.len() - 4); // drop the empty TLV count
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(0xAB); // unknown type
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[9, 9]);
        assert_eq!(Response::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn install_map_rejects_structurally_invalid_map() {
        let mut buf = Request::InstallMap { map: sample_map() }.encode();
        // Flip a replica id inside the map body to a non-member (0xFF).
        let n = buf.len();
        buf[n - 6] = 0xFF;
        assert!(Request::decode(&buf).is_err(), "corrupt map must not install");
    }
}
