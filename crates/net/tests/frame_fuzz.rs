//! Seeded corruption fuzz for the `velox-net` frame codec and RPC
//! decoder, mirroring `velox-storage`'s `codec_fuzz` battery.
//!
//! A frame arrives off a socket, so the codec is a trust boundary against
//! the network: torn frames (peer died mid-write), bit rot (flips), and
//! hostile length prefixes. The decoder must always return an error —
//! never panic, never hand corrupted bytes to the RPC layer, and never
//! let a corrupt length allocate unbounded memory. The CRC-32 header
//! makes the single-bit-flip guarantee unconditional for the payload.

use std::io::Cursor;

use velox_data::VeloxRng;
use velox_net::frame::{
    read_frame, read_frame_ext, write_frame, write_frame_ext, FrameError, FrameMeta,
};
use velox_net::rpc::{build_chunk, chunk_crc, verify_chunk, Request, Response};
use velox_obs::TraceContext;
use velox_storage::Observation;

const SEED: u64 = 0x5EED_F4A3;
const TRUNCATIONS: usize = 300;
const BIT_FLIPS: usize = 600;
const GARBAGE_BLOBS: usize = 200;

fn random_payload(rng: &mut VeloxRng) -> Vec<u8> {
    let len = (rng.below(512) + 1) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).expect("encode");
    buf
}

/// Decodes one frame and (when requested) checks it matches `expect`.
fn decodes_to(bytes: &[u8], expect: Option<&[u8]>) -> bool {
    match read_frame(&mut Cursor::new(bytes)) {
        Ok(p) => {
            if let Some(want) = expect {
                assert_eq!(p, want, "frame decoded to different bytes than were sent");
            }
            true
        }
        Err(_) => false,
    }
}

#[test]
fn frames_survive_truncation_battery() {
    let mut rng = VeloxRng::seed_from(SEED);
    for round in 0..4 {
        let payload = random_payload(&mut rng);
        let raw = encode_frame(&payload);
        assert!(decodes_to(&raw, Some(&payload)), "round {round}: pristine frame must decode");
        for t in 0..TRUNCATIONS {
            let cut = if t == 0 { 0 } else { (rng.below(raw.len() as u64 - 1) + 1) as usize };
            if cut == raw.len() {
                continue;
            }
            assert!(
                !decodes_to(&raw[..cut], None),
                "round {round}: accepted a {cut}-byte truncation of {} bytes",
                raw.len()
            );
        }
    }
}

#[test]
fn frames_survive_bit_flip_battery() {
    let mut rng = VeloxRng::seed_from(SEED ^ 1);
    for round in 0..4 {
        let payload = random_payload(&mut rng);
        let raw = encode_frame(&payload);
        for _ in 0..BIT_FLIPS {
            let byte = rng.below(raw.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            let mut flipped = raw.clone();
            flipped[byte] ^= 1 << bit;
            // A flip in the payload or checksum must be rejected. A flip
            // in the length prefix may still frame correctly only if the
            // resulting bytes pass the checksum — which requires the
            // payload to be unchanged; assert equality whenever accepted.
            if decodes_to(&flipped, Some(&payload)) {
                panic!(
                    "round {round}: accepted a bit flip at byte {byte} bit {bit} \
                     (decode matched, so the flip was silently absorbed)"
                );
            }
        }
    }
}

#[test]
fn oversized_lengths_fail_fast_without_allocation() {
    let mut rng = VeloxRng::seed_from(SEED ^ 2);
    for _ in 0..100 {
        // Length prefixes from MAX_FRAME_LEN+1 up to u32::MAX.
        let len = velox_net::MAX_FRAME_LEN as u64 + 1 + rng.below(u32::MAX as u64 / 2);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(len as u32).to_be_bytes());
        buf.extend_from_slice(&rng.next_u64().to_be_bytes()[..4]);
        buf.extend(std::iter::repeat_n(0u8, 16));
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::TooLarge(_) | FrameError::Corrupt(_))
        ));
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = VeloxRng::seed_from(SEED ^ 3);
    for _ in 0..GARBAGE_BLOBS {
        let len = rng.below(128) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        // Both layers must reject arbitrary bytes without panicking. The
        // frame layer may accept a garbage blob only in the astronomically
        // unlikely case the CRC matches; the RPC decoders below must not
        // panic either way.
        let _ = read_frame(&mut Cursor::new(&garbage));
        let _ = Request::decode(&garbage);
        let _ = Response::decode(&garbage);
    }
}

fn random_ctx(rng: &mut VeloxRng) -> TraceContext {
    TraceContext {
        trace_id: rng.next_u64() | 1,
        span_id: rng.next_u64() | 1,
        sampled: rng.below(2) == 1,
    }
}

fn encode_traced_frame(payload: &[u8], ctx: &TraceContext) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame_ext(&mut buf, payload, Some(ctx)).expect("encode traced");
    buf
}

/// Decodes one extended frame, asserting payload and metadata match when
/// the decode is accepted.
fn ext_decodes_to(bytes: &[u8], expect: Option<(&[u8], &FrameMeta)>) -> bool {
    match read_frame_ext(&mut Cursor::new(bytes)) {
        Ok((p, meta)) => {
            if let Some((want, want_meta)) = expect {
                assert_eq!(p, want, "traced frame decoded to different payload bytes");
                assert_eq!(&meta, want_meta, "traced frame decoded to different metadata");
            }
            true
        }
        Err(_) => false,
    }
}

/// The truncation battery over frames carrying a header-extension trace
/// TLV: every proper prefix must be rejected, exactly like plain frames.
#[test]
fn traced_frames_survive_truncation_battery() {
    let mut rng = VeloxRng::seed_from(SEED ^ 4);
    for round in 0..4 {
        let payload = random_payload(&mut rng);
        let ctx = random_ctx(&mut rng);
        let meta = FrameMeta { trace: Some(ctx), unknown_exts: 0 };
        let raw = encode_traced_frame(&payload, &ctx);
        assert!(
            ext_decodes_to(&raw, Some((&payload, &meta))),
            "round {round}: pristine traced frame must decode"
        );
        for t in 0..TRUNCATIONS {
            let cut = if t == 0 { 0 } else { (rng.below(raw.len() as u64 - 1) + 1) as usize };
            if cut == raw.len() {
                continue;
            }
            assert!(
                !ext_decodes_to(&raw[..cut], None),
                "round {round}: accepted a {cut}-byte truncation of a {}-byte traced frame",
                raw.len()
            );
        }
    }
}

/// The bit-flip battery over traced frames. The extension section — the
/// flag bit, `ext_len`, and the TLV bytes — is covered by the same CRC as
/// the payload, so a flip anywhere (including clearing `FLAG_EXT` itself,
/// which re-frames the bytes) must never be silently absorbed: either the
/// read errors, or it reproduces the exact payload *and* trace context.
#[test]
fn traced_frames_survive_bit_flip_battery() {
    let mut rng = VeloxRng::seed_from(SEED ^ 5);
    for round in 0..4 {
        let payload = random_payload(&mut rng);
        let ctx = random_ctx(&mut rng);
        let meta = FrameMeta { trace: Some(ctx), unknown_exts: 0 };
        let raw = encode_traced_frame(&payload, &ctx);
        for _ in 0..BIT_FLIPS {
            let byte = rng.below(raw.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            let mut flipped = raw.clone();
            flipped[byte] ^= 1 << bit;
            if ext_decodes_to(&flipped, Some((&payload, &meta))) {
                panic!(
                    "round {round}: accepted a bit flip at byte {byte} bit {bit} \
                     of a traced frame (decode matched, so the flip was silently absorbed)"
                );
            }
        }
    }
}

/// Full single-bit-flip coverage of one traced RPC frame: every flip is
/// rejected, or decodes to the identical payload and trace context.
#[test]
fn traced_rpc_frame_rejects_every_single_bit_flip() {
    let ctx = TraceContext {
        trace_id: 0xfeed_beef_cafe_f00d,
        span_id: 0x0123_4567_89ab_cdef,
        sampled: true,
    };
    let payload =
        Request::Observe { uid: 3, item_id: 9, y: 0.75, no_forward: true, obs_id: 42, epoch: 0 }
            .encode();
    let raw = encode_traced_frame(&payload, &ctx);
    let meta = FrameMeta { trace: Some(ctx), unknown_exts: 0 };
    for byte in 0..raw.len() {
        for bit in 0..8 {
            let mut flipped = raw.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok((p, m)) = read_frame_ext(&mut Cursor::new(&flipped)) {
                assert_eq!(
                    (p, m),
                    (payload.clone(), meta),
                    "flip at byte {byte} bit {bit} absorbed"
                );
            }
        }
    }
}

/// Every RPC message survives full single-bit-flip coverage of its frame:
/// the flip is either rejected at the frame layer or (impossible with
/// CRC-32, but pinned anyway) decodes to the identical message.
#[test]
fn rpc_frames_reject_every_single_bit_flip() {
    let messages = [
        Request::Predict { uid: 77, item_id: 12, no_forward: false, epoch: 3 }.encode(),
        Request::Observe { uid: 3, item_id: 9, y: 0.75, no_forward: true, obs_id: 42, epoch: 0 }
            .encode(),
        Request::ShipLog {
            records: vec![Observation { uid: 1, item_id: 2, y: 0.5, timestamp: 42 }],
            obs_ids: vec![9],
        }
        .encode(),
        Response::Predicted { score: 0.25, node: 1, forwarded: true, cold_start: false }.encode(),
        Response::Observed { node: 0, ts: 7, shipped_to: 1 }.encode(),
    ];
    for payload in &messages {
        let raw = encode_frame(payload);
        for byte in 0..raw.len() {
            for bit in 0..8 {
                let mut flipped = raw.clone();
                flipped[byte] ^= 1 << bit;
                if let Ok(decoded) = read_frame(&mut Cursor::new(&flipped)) {
                    assert_eq!(
                        &decoded, payload,
                        "frame layer accepted altered bytes as different payload"
                    );
                }
            }
        }
    }
}

/// Chaos corruptor: a multi-frame stream (the shape a persistent RPC
/// connection carries) hit mid-stream by truncation, bit flips, and
/// frame duplication — the same injections `LinkChaos` performs on live
/// sockets. The connection must fail closed: every frame that decodes
/// at all must be byte-identical to one that was sent, in order; the
/// first corrupted frame kills the rest of the stream (no resync onto a
/// payload that was never sent).
#[test]
fn chaos_corrupted_streams_fail_closed_never_misparse() {
    let mut rng = VeloxRng::seed_from(SEED ^ 6);
    for _ in 0..120 {
        // A stream of 2–5 frames, with one duplicated mid-stream the way
        // the chaos client re-sends a frame.
        let n = (rng.below(4) + 2) as usize;
        let payloads: Vec<Vec<u8>> = (0..n).map(|_| random_payload(&mut rng)).collect();
        let mut sent: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let dup_at = (rng.below(n as u64)) as usize;
        sent.insert(dup_at, sent[dup_at]);

        let mut stream = Vec::new();
        for p in &sent {
            stream.extend_from_slice(&encode_frame(p));
        }

        // One mid-stream injury: truncate the tail, or flip a bit.
        let injured = match rng.below(3) {
            0 => {
                let cut = (rng.below(stream.len() as u64 - 1) + 1) as usize;
                stream[..cut].to_vec()
            }
            1 => {
                let byte = rng.below(stream.len() as u64) as usize;
                let mut s = stream.clone();
                s[byte] ^= 1 << (rng.below(8) as u8);
                s
            }
            _ => stream.clone(), // duplication alone must decode cleanly
        };

        let mut cursor = Cursor::new(injured.as_slice());
        let mut decoded = 0usize;
        // Fail closed: the first undecodable frame ends the connection;
        // nothing after it is interpreted.
        while let Ok(frame) = read_frame(&mut cursor) {
            assert!(decoded < sent.len(), "stream yielded more frames than were sent");
            assert_eq!(
                frame, sent[decoded],
                "frame {decoded} decoded to bytes that were never sent"
            );
            decoded += 1;
        }
        assert!(decoded <= sent.len());
    }
}

/// The membership-plane wire surface for the batteries below: map
/// exchange (`GetMap`/`InstallMap`/`Map`) and the migration checkpoint
/// sink (`PushPartition`; the chunk stream has its own batteries below).
fn sample_map() -> velox_cluster::PartitionMap {
    velox_cluster::PartitionMap::bootstrap(3, 2, 0xC0FFEE)
        .expect("bootstrap")
        .with_member(3)
        .expect("join")
}

/// Every migration/epoch RPC rejects every truncation at the decode
/// layer — a torn checkpoint stream or cutover frame must fail closed,
/// never install a partial map or a partial weights batch.
#[test]
fn migration_rpcs_reject_every_truncation() {
    let requests = [
        Request::GetMap.encode(),
        Request::InstallMap { map: sample_map() }.encode(),
        Request::PushPartition { entries: vec![(42, vec![0.5, 0.25]), (7, vec![1.0])] }.encode(),
    ];
    for raw in &requests {
        assert!(Request::decode(raw).is_ok(), "pristine request must decode");
        for cut in 0..raw.len() {
            assert!(
                Request::decode(&raw[..cut]).is_err(),
                "accepted a {cut}-byte truncation of a {}-byte request",
                raw.len()
            );
        }
    }
    let raw = Response::Map { map: sample_map() }.encode();
    assert!(Response::decode(&raw).is_ok(), "pristine response must decode");
    for cut in 0..raw.len() {
        assert!(
            Response::decode(&raw[..cut]).is_err(),
            "accepted a {cut}-byte truncation of a {}-byte response",
            raw.len()
        );
    }
}

/// A bit flip inside an epoch stamp is never silently absorbed: the
/// decoder either rejects the message or surfaces a *different* epoch,
/// which the node-side `admit_epoch` check then refuses. (End-to-end the
/// frame CRC already rejects the flip; this pins the decode layer too.)
#[test]
fn bit_flipped_epochs_are_never_silently_absorbed() {
    let stamped = [
        Request::Predict { uid: 9, item_id: 4, no_forward: true, epoch: 41 }.encode(),
        Request::Observe { uid: 9, item_id: 4, y: 0.5, no_forward: false, obs_id: 77, epoch: 41 }
            .encode(),
    ];
    for raw in &stamped {
        let orig = Request::decode(raw).expect("pristine");
        // The epoch stamp is the trailing u64 of both requests.
        for byte in raw.len() - 8..raw.len() {
            for bit in 0..8 {
                let mut flipped = raw.clone();
                flipped[byte] ^= 1 << bit;
                if let Ok(m) = Request::decode(&flipped) {
                    assert_ne!(m, orig, "flip at byte {byte} bit {bit} absorbed");
                }
            }
        }
    }
    // The cutover frame leads with the map's epoch (tag, then u64).
    let raw = Request::InstallMap { map: sample_map() }.encode();
    let orig = Request::decode(&raw).expect("pristine");
    for byte in 1..9 {
        for bit in 0..8 {
            let mut flipped = raw.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(m) = Request::decode(&flipped) {
                assert_ne!(m, orig, "map epoch flip at byte {byte} bit {bit} absorbed");
            }
        }
    }
}

/// A realistic chunk stream for the chunked-transfer batteries: a
/// partition's uid-ascending entries split into several bounded chunks.
fn sample_chunk_stream() -> (Vec<(u64, Vec<f64>)>, Vec<Response>) {
    // No ±0.0 weights: `-0.0 == 0.0` under f64 equality, which would let
    // a sign-bit flip masquerade as a pristine decode in the batteries.
    let entries: Vec<(u64, Vec<f64>)> = (0..9u64)
        .map(|i| (i * 7 + 2, vec![i as f64 * 0.5 + 0.125, -(i as f64) - 0.25, 1.0]))
        .collect();
    let mut chunks = Vec::new();
    let mut cursor = 0u64;
    loop {
        let chunk = build_chunk(&entries, cursor, 128);
        let Response::PartitionChunk { next_cursor, done, .. } = &chunk else { unreachable!() };
        let (nc, d) = (*next_cursor, *done);
        chunks.push(chunk);
        cursor = nc;
        if d {
            break;
        }
    }
    assert!(chunks.len() >= 3, "the battery needs a multi-chunk stream");
    (entries, chunks)
}

fn chunk_fields(r: &Response) -> (Vec<(u64, Vec<f64>)>, u64, bool, u32) {
    let Response::PartitionChunk { entries, next_cursor, done, crc } = r else {
        panic!("not a chunk: {r:?}")
    };
    (entries.clone(), *next_cursor, *done, *crc)
}

/// Every chunked-transfer RPC rejects every truncation at the decode
/// layer — a torn chunk frame fails closed, never delivering a partial
/// entry batch or a half-parsed cursor.
#[test]
fn chunked_transfer_rpcs_reject_every_truncation() {
    let (_, chunks) = sample_chunk_stream();
    let pull = Request::PullPartitionChunk { partition: 7, cursor: 23, max_bytes: 4096 }.encode();
    for cut in 0..pull.len() {
        assert!(
            Request::decode(&pull[..cut]).is_err(),
            "accepted a {cut}-byte truncation of a {}-byte chunk pull",
            pull.len()
        );
    }
    for raw in chunks.iter().map(Response::encode) {
        for cut in 0..raw.len() {
            assert!(
                Response::decode(&raw[..cut]).is_err(),
                "accepted a {cut}-byte truncation of a {}-byte chunk response",
                raw.len()
            );
        }
    }
}

/// Seeded bit-flip battery over encoded chunk frames: any flip that the
/// decode layer accepts must fail [`verify_chunk`] — the receiver-side
/// admission check — unless the decode reproduced the chunk exactly. A
/// flipped cursor, CRC, done flag, or weight byte never reaches the
/// destination's weight table (reject-before-apply).
#[test]
fn bit_flipped_chunk_fields_reject_before_apply() {
    let mut rng = VeloxRng::seed_from(SEED ^ 8);
    let (_, chunks) = sample_chunk_stream();
    let mut cursor = 0u64;
    for chunk in &chunks {
        let raw = chunk.encode();
        let pristine = chunk_fields(chunk);
        for _ in 0..BIT_FLIPS {
            let byte = rng.below(raw.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            let mut flipped = raw.clone();
            flipped[byte] ^= 1 << bit;
            let Ok(decoded) = Response::decode(&flipped) else { continue };
            let Response::PartitionChunk { entries, next_cursor, done, crc } = decoded else {
                continue; // re-framed to another message: callers reject the type
            };
            if (entries.clone(), next_cursor, done, crc) == pristine {
                panic!("flip at byte {byte} bit {bit} decoded back to the pristine chunk");
            }
            assert!(
                verify_chunk(cursor, &entries, next_cursor, done, crc).is_some(),
                "flip at byte {byte} bit {bit} passed admission — would apply corrupt state"
            );
        }
        cursor = pristine.1;
    }
}

/// Duplicated and reordered chunk frames are rejected before apply,
/// while an exact same-cursor replay (the resume path after a dropped
/// link) is admitted — it is idempotent by construction.
#[test]
fn duplicated_and_reordered_chunk_frames_reject_before_apply() {
    let (_, chunks) = sample_chunk_stream();
    let (e0, nc0, d0, crc0) = chunk_fields(&chunks[0]);
    let (e1, nc1, d1, crc1) = chunk_fields(&chunks[1]);

    // Exact replay at the same cursor: admitted (resume after a fault).
    assert!(verify_chunk(0, &e0, nc0, d0, crc0).is_none());
    assert!(verify_chunk(0, &e0, nc0, d0, crc0).is_none());

    // Duplicated frame arriving after the stream advanced: its uids sit
    // below the cursor — a double-apply attempt — and must be rejected.
    let why = verify_chunk(nc0, &e0, nc0, d0, crc0).expect("duplicate chunk admitted");
    assert!(why.contains("below cursor"), "{why}");

    // Entries reordered inside a chunk, CRC honestly recomputed: the
    // ascending-uid invariant still rejects it (ordering is what makes
    // cursor resume sound).
    let mut reordered = e1.clone();
    reordered.reverse();
    let recrc = chunk_crc(&reordered, nc1, d1);
    let why = verify_chunk(nc0, &reordered, nc1, d1, recrc).expect("reordered chunk admitted");
    assert!(why.contains("ascending"), "{why}");

    // Reordered with the *old* CRC: caught even earlier, by the checksum.
    let why = verify_chunk(nc0, &reordered, nc1, d1, crc1).expect("reordered chunk admitted");
    assert!(why.contains("crc"), "{why}");
}

/// Seeded battery over the chunk frame's TLV extension tail: unknown
/// TLVs of random shapes are skipped without altering any field
/// (forward compatibility), while truncations inside the tail are
/// rejected — a partial extension can never smuggle entries in.
#[test]
fn chunk_frame_tlv_tail_battery() {
    let mut rng = VeloxRng::seed_from(SEED ^ 9);
    let (_, chunks) = sample_chunk_stream();
    let pristine = chunk_fields(&chunks[0]);
    let base = chunks[0].encode();
    let body = &base[..base.len() - 4]; // strip the empty TLV count
    for round in 0..200 {
        let n_tlv = rng.below(4) as usize + 1;
        let mut buf = body.to_vec();
        buf.extend_from_slice(&(n_tlv as u32).to_be_bytes());
        for _ in 0..n_tlv {
            buf.push(rng.below(256) as u8);
            let len = rng.below(16) as usize;
            buf.extend_from_slice(&(len as u32).to_be_bytes());
            for _ in 0..len {
                buf.push(rng.below(256) as u8);
            }
        }
        match Response::decode(&buf) {
            Ok(Response::PartitionChunk { entries, next_cursor, done, crc }) => {
                assert_eq!(
                    (entries, next_cursor, done, crc),
                    pristine.clone(),
                    "round {round}: TLV tail altered the decoded chunk"
                );
            }
            other => panic!("round {round}: unknown TLVs must be skipped, got {other:?}"),
        }
        let tail_start = body.len() + 4;
        let cut = tail_start + rng.below((buf.len() - tail_start) as u64) as usize;
        assert!(
            Response::decode(&buf[..cut]).is_err(),
            "round {round}: accepted a chunk TLV tail truncated at byte {cut}"
        );
    }
}

/// Seeded battery over the cutover frame's TLV extension tail: unknown
/// TLV types of random shapes are skipped (forward compatibility for
/// future membership metadata), while any truncation inside the tail is
/// rejected — a partial extension can never smuggle a map in.
#[test]
fn cutover_frame_tlv_tail_battery() {
    let mut rng = VeloxRng::seed_from(SEED ^ 7);
    let map = sample_map();
    let base = Request::InstallMap { map: map.clone() }.encode();
    let body = &base[..base.len() - 4]; // strip the empty TLV count
    for round in 0..200 {
        let n_tlv = rng.below(4) as usize + 1;
        let mut buf = body.to_vec();
        buf.extend_from_slice(&(n_tlv as u32).to_be_bytes());
        for _ in 0..n_tlv {
            buf.push(rng.below(256) as u8); // type: anything goes
            let len = rng.below(16) as usize;
            buf.extend_from_slice(&(len as u32).to_be_bytes());
            for _ in 0..len {
                buf.push(rng.below(256) as u8);
            }
        }
        match Request::decode(&buf) {
            Ok(Request::InstallMap { map: decoded }) => {
                assert_eq!(decoded, map, "round {round}: TLV tail altered the decoded map")
            }
            other => panic!("round {round}: unknown TLVs must be skipped, got {other:?}"),
        }
        let tail_start = body.len() + 4;
        let cut = tail_start + rng.below((buf.len() - tail_start) as u64) as usize;
        assert!(
            Request::decode(&buf[..cut]).is_err(),
            "round {round}: accepted a TLV tail truncated at byte {cut}"
        );
    }
}
