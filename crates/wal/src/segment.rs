//! The on-disk segment format and its total scanner.
//!
//! # Layout (format version 1)
//!
//! A WAL is a directory of segment files named `<base-lsn>.seg` (the
//! base LSN zero-padded to 20 digits so lexicographic order equals
//! numeric order). Each segment is:
//!
//! ```text
//! offset  size  field
//! ------  ----  ---------------------------------------------------
//! 0       8     magic tag, the ASCII bytes "PITRWSEG"
//! 8       2     format version, u16 LE (currently 1)
//! 10      8     base LSN, u64 LE (the first record's sequence number;
//!               must match the file name)
//! 18      ...   records, back to back
//! ```
//!
//! and each record is:
//!
//! ```text
//! size  field
//! ----  ------------------------------------------------------------
//! 4     payload length n, u32 LE
//! 8     LSN, u64 LE (the previous record's LSN + 1; the first
//!       record's is the segment's base)
//! n     payload (an UpdateEntry in the pitract-store codec)
//! 8     FNV-1a-64 checksum over the preceding 12 + n bytes, u64 LE
//! ```
//!
//! The checksum covers the length and LSN fields too, so a corrupted
//! frame cannot masquerade as a short valid record.
//!
//! # One frame validator
//!
//! [`scan_frames`] is the single place a record frame is validated
//! (length, checksum, LSN sequence, torn tail vs. corruption). It walks a
//! borrowed byte slice and hands back borrowed [`Frame`]s — no payload
//! copies — so the three readers of the format share it: [`scan_segment`]
//! (header check, then the frame walk) for whole segment files, the
//! replication publisher for the tail of a segment past a follower's
//! cursor, and the follower for a received shipment, which is frames
//! with no header at all.
//!
//! # Torn tails vs. corruption
//!
//! The frame walk distinguishes the two failure shapes a segment can
//! have, because they demand opposite reactions:
//!
//! * a **torn tail** — the *last* segment ends before a record's declared
//!   frame is complete. That is the unavoidable residue of a crash
//!   mid-append: the record was never confirmed, so the scanner reports
//!   the clean prefix and the writer rewrites the segment without the
//!   tail. Never an error.
//! * **corruption** — a fully framed record whose checksum does not
//!   match, a sequence number out of sequence, or a *closed* segment
//!   ending mid-record. No crash produces these (appends only ever
//!   truncate the tail of the newest segment); they mean the disk or an
//!   operator damaged the log, and recovery must say so typed rather
//!   than replay a prefix that silently diverges from history.

use crate::error::WalError;
use pitract_core::hash::fnv1a64;
use pitract_engine::UpdateEntry;
use pitract_store::codec::Reader as CodecReader;
use pitract_store::Dir;

/// The 8-byte magic tag opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"PITRWSEG";

/// The segment format version this binary writes and the only one it
/// reads.
pub const SEGMENT_VERSION: u16 = 1;

/// File extension of WAL segments.
pub const SEGMENT_EXT: &str = "seg";

/// Bytes of the segment header (magic + version + base LSN).
pub const SEGMENT_HEADER_LEN: usize = 8 + 2 + 8;

/// Fixed bytes per record around the payload (length + LSN + checksum).
pub const RECORD_OVERHEAD: usize = 4 + 8 + 8;

/// Decode a little-endian `u16` from an exactly-sized slice. Callers
/// index `bytes` with offsets they have already length-checked, so this
/// is a plain fixed-width copy, not a fallible parse.
fn le_u16(bytes: &[u8]) -> u16 {
    let mut raw = [0u8; 2];
    raw.copy_from_slice(bytes);
    u16::from_le_bytes(raw)
}

/// Decode a little-endian `u32` from an exactly-sized slice.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(bytes);
    u32::from_le_bytes(raw)
}

/// Decode a little-endian `u64` from an exactly-sized slice.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    u64::from_le_bytes(raw)
}

/// Encode a segment header for `base_lsn`.
pub fn segment_header(base_lsn: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN);
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&base_lsn.to_le_bytes());
    bytes
}

/// The canonical file name of the segment based at `base_lsn`.
pub fn segment_file_name(base_lsn: u64) -> String {
    format!("{base_lsn:020}.{SEGMENT_EXT}")
}

/// Parse a segment file name back to its base LSN (`None` for foreign
/// files, which directory scans skip).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(SEGMENT_EXT)?.strip_suffix('.')?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Encode one record: length + LSN + payload + checksum.
pub fn encode_record(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&lsn.to_le_bytes());
    bytes.extend_from_slice(payload);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Decode the payload of record `lsn` — the one place a payload is
/// read as an [`UpdateEntry`]. A payload that does not decode, or has
/// bytes left over, is [`WalError::Corrupt`] at `offset` of `segment`.
pub fn decode_entry(
    segment: &str,
    offset: u64,
    lsn: u64,
    payload: &[u8],
) -> Result<UpdateEntry, WalError> {
    let corrupt = |reason| WalError::Corrupt {
        segment: segment.to_string(),
        offset,
        reason,
    };
    let mut r = CodecReader::new(payload);
    let entry = r
        .update_entry()
        .map_err(|e| corrupt(format!("record {lsn} payload does not decode: {e}")))?;
    if !r.is_exhausted() {
        return Err(corrupt(format!("record {lsn} has trailing payload bytes")));
    }
    Ok(entry)
}

/// One validated record frame, borrowed from the scanned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The record's LSN.
    pub lsn: u64,
    /// Byte offset of the frame's first byte within the scanned bytes.
    pub offset: usize,
    /// The whole frame — length + LSN + payload + checksum — exactly as
    /// it sits on disk (and travels in a replication shipment).
    pub bytes: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The record payload (the frame minus length, LSN, and checksum).
    pub fn payload(&self) -> &'a [u8] {
        &self.bytes[12..self.bytes.len() - 8]
    }

    /// Byte offset just past the frame within the scanned bytes.
    pub fn end(&self) -> usize {
        self.offset + self.bytes.len()
    }
}

/// A validated run of frames plus where the clean prefix ends.
#[derive(Debug)]
pub struct FrameScan<'a> {
    /// Every complete, validated frame, in order.
    pub frames: Vec<Frame<'a>>,
    /// Byte length of the valid prefix of the scanned bytes (for a whole
    /// segment: header + complete records — a writer resuming the
    /// segment truncates the file here).
    pub clean_len: u64,
    /// Bytes past the clean prefix — nonzero only for a torn tail in the
    /// last segment.
    pub torn_bytes: u64,
}

/// The single frame validator: walk `bytes` as back-to-back record
/// frames, checking each frame's length, FNV-1a-64 checksum, and that
/// the LSNs run `expected_lsn`, `expected_lsn + 1`, … with no gap: the
/// log has no holes, so a skip is damage like a step back. Everything that
/// reads frames — [`scan_segment`] after its header check, a replication
/// publisher reading a segment's tail, a follower receiving a shipment —
/// goes through here, so "what is a valid frame" is decided in one
/// place. `last` marks bytes that end the newest segment, the only place
/// a torn tail is tolerated; `name` labels errors, whose offsets are
/// relative to `bytes`.
pub fn scan_frames<'a>(
    bytes: &'a [u8],
    expected_lsn: u64,
    last: bool,
    name: &str,
) -> Result<FrameScan<'a>, WalError> {
    walk_frames(bytes, 0, expected_lsn, last, name)
}

fn corrupt(name: &str, offset: usize, reason: String) -> WalError {
    WalError::Corrupt {
        segment: name.to_string(),
        offset: offset as u64,
        reason,
    }
}

/// [`scan_frames`] over `bytes[start..]`, with offsets (in frames and
/// errors) counted from the start of `bytes`.
fn walk_frames<'a>(
    bytes: &'a [u8],
    start: usize,
    expected_lsn: u64,
    last: bool,
    name: &str,
) -> Result<FrameScan<'a>, WalError> {
    let mut frames = Vec::new();
    let mut pos = start;
    let mut expected = expected_lsn;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(FrameScan {
                frames,
                clean_len: pos as u64,
                torn_bytes: 0,
            });
        }
        // Is the full frame present? Anything short of it is a torn tail
        // (tolerated in the last segment) — truncation can cut anywhere,
        // including inside the length field itself.
        let frame_len = if remaining >= 4 {
            let n = le_u32(&bytes[pos..pos + 4]) as usize;
            n.checked_add(RECORD_OVERHEAD)
        } else {
            None
        };
        let Some(frame_len) = frame_len.filter(|f| *f <= remaining) else {
            if last {
                return Ok(FrameScan {
                    frames,
                    clean_len: pos as u64,
                    torn_bytes: remaining as u64,
                });
            }
            return Err(corrupt(name, pos, "closed segment ends mid-record".into()));
        };
        let frame = &bytes[pos..pos + frame_len];
        let stored = le_u64(&frame[frame_len - 8..]);
        if fnv1a64(&frame[..frame_len - 8]) != stored {
            // A complete frame with a bad checksum is bit rot, not a
            // crash: truncation can only ever shorten the file.
            return Err(corrupt(name, pos, "record checksum mismatch".into()));
        }
        let lsn = le_u64(&frame[4..12]);
        if lsn != expected {
            return Err(corrupt(
                name,
                pos,
                format!("lsn {lsn} out of sequence (expected {expected})"),
            ));
        }
        frames.push(Frame {
            lsn,
            offset: pos,
            bytes: frame,
        });
        expected = lsn + 1;
        pos += frame_len;
    }
}

/// Scan one whole segment's bytes: validate the header, then every frame
/// after it with [`scan_frames`]' walk (frame and error offsets are file
/// offsets). `last` marks the newest segment of the directory — the only
/// one allowed a torn tail; `name` labels errors.
pub fn scan_segment<'a>(
    bytes: &'a [u8],
    name_base: u64,
    last: bool,
    name: &str,
) -> Result<FrameScan<'a>, WalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        if last {
            // A crash while the header itself was being written: nothing
            // in this segment was ever confirmed.
            return Ok(FrameScan {
                frames: Vec::new(),
                clean_len: 0,
                torn_bytes: bytes.len() as u64,
            });
        }
        return Err(corrupt(
            name,
            0,
            "closed segment shorter than its header".into(),
        ));
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(WalError::NotASegment {
            path: name.to_string(),
        });
    }
    let version = le_u16(&bytes[8..10]);
    if version != SEGMENT_VERSION {
        return Err(WalError::VersionMismatch {
            found: version,
            expected: SEGMENT_VERSION,
        });
    }
    let base_lsn = le_u64(&bytes[10..18]);
    if base_lsn != name_base {
        return Err(corrupt(
            name,
            10,
            format!("header base lsn {base_lsn} does not match file name base {name_base}"),
        ));
    }
    walk_frames(bytes, SEGMENT_HEADER_LEN, base_lsn, last, name)
}

/// One segment file of a directory scan, with its validated contents.
#[derive(Debug)]
pub struct ScannedSegment {
    /// File name of the segment within its directory.
    pub name: String,
    /// Base LSN (from header and file name, verified equal).
    pub base_lsn: u64,
    /// `(lsn, payload)` of every valid record at or above the scan's
    /// floor ([`scan_dir_from`]; all of them for [`scan_dir`]), in order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Total bytes currently in the file.
    pub file_len: u64,
    /// Byte length of the valid prefix.
    pub clean_len: u64,
}

/// A whole-directory scan: every segment validated, ordered by base LSN.
#[derive(Debug)]
pub struct DirScan {
    /// The segments, ascending by base LSN. The last one is the active
    /// (append) segment.
    pub segments: Vec<ScannedSegment>,
    /// The sequence number the next append must use.
    pub next_lsn: u64,
    /// Torn bytes found past the last segment's clean prefix (0 when the
    /// shutdown was clean).
    pub torn_bytes: u64,
}

impl DirScan {
    /// All `(lsn, payload)` records kept across segments (those at or
    /// above the scan's floor), in LSN order.
    pub fn records(&self) -> impl Iterator<Item = &(u64, Vec<u8>)> {
        self.segments.iter().flat_map(|s| s.records.iter())
    }
}

/// The segment files of a WAL directory as `(base LSN, file name)`,
/// ascending by base — so the last entry is the active segment, and
/// segment `i` holds LSNs in `[base_i, base_{i+1})`. Foreign files are
/// skipped.
pub fn list_segments(dir: &Dir) -> std::io::Result<Vec<(u64, String)>> {
    let mut files: Vec<(u64, String)> = dir
        .list()?
        .into_iter()
        .filter_map(|name| Some((parse_segment_file_name(&name)?, name)))
        .collect();
    files.sort();
    Ok(files)
}

/// Scan a WAL directory: locate the segment files, validate each, check
/// that each segment after the first is based where its predecessor's
/// records end (a missing middle segment is a gap). The first segment
/// may start at any base: compaction removes a prefix. Foreign files
/// (wrong extension, wrong name shape, leftover `.tmp` from an
/// interrupted atomic write) are ignored. A missing directory scans as
/// empty.
pub fn scan_dir(dir: &Dir) -> Result<DirScan, WalError> {
    scan_dir_from(dir, 0)
}

/// [`scan_dir`], keeping only the records at or above `floor`: every
/// frame is still read, checksummed and ordered, and the scan's
/// positions (`next_lsn`, each segment's lengths) are the whole log's,
/// but a frame below the floor is not copied out. Recovery passes the
/// checkpoint mark, so what it holds is sized by the tail it replays,
/// not by the log's history.
pub fn scan_dir_from(dir: &Dir, floor: u64) -> Result<DirScan, WalError> {
    let files = match list_segments(dir) {
        Ok(files) => files,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(WalError::Io(e)),
    };

    let mut segments = Vec::with_capacity(files.len());
    let mut next_lsn = 0u64;
    let mut torn_bytes = 0u64;
    let count = files.len();
    for (i, (base, name)) in files.into_iter().enumerate() {
        let last = i + 1 == count;
        if i > 0 && base != next_lsn {
            return Err(WalError::Corrupt {
                segment: name,
                offset: 0,
                reason: format!("segment base {base} where lsn {next_lsn} was expected"),
            });
        }
        let bytes = dir.read(&name, 0)?;
        let scan = scan_segment(&bytes, base, last, &name)?;
        next_lsn = base + scan.frames.len() as u64;
        if last {
            torn_bytes = scan.torn_bytes;
        }
        segments.push(ScannedSegment {
            name,
            base_lsn: base,
            records: scan
                .frames
                .iter()
                .filter(|f| f.lsn >= floor)
                .map(|f| (f.lsn, f.payload().to_vec()))
                .collect(),
            file_len: bytes.len() as u64,
            clean_len: scan.clean_len,
        });
    }
    Ok(DirScan {
        segments,
        next_lsn,
        torn_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_bytes(base: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = segment_header(base);
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(base + i as u64, p));
        }
        bytes
    }

    #[test]
    fn names_roundtrip_and_sort_numerically() {
        assert_eq!(segment_file_name(0), "00000000000000000000.seg");
        assert_eq!(segment_file_name(42), "00000000000000000042.seg");
        assert_eq!(
            parse_segment_file_name(&segment_file_name(123_456)),
            Some(123_456)
        );
        assert_eq!(parse_segment_file_name("foo.seg"), None);
        assert_eq!(parse_segment_file_name("00000000000000000042.tmp"), None);
        assert_eq!(
            parse_segment_file_name("42.seg"),
            None,
            "unpadded is foreign"
        );
        assert!(segment_file_name(9) < segment_file_name(10));
    }

    #[test]
    fn clean_segment_scans_completely() {
        let bytes = segment_bytes(7, &[b"alpha", b"", b"gamma-longer-payload"]);
        let scan = scan_segment(&bytes, 7, true, "t").unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.clean_len, bytes.len() as u64);
        let records: Vec<(u64, &[u8])> = scan.frames.iter().map(|f| (f.lsn, f.payload())).collect();
        assert_eq!(
            records,
            vec![
                (7, &b"alpha"[..]),
                (8, &b""[..]),
                (9, &b"gamma-longer-payload"[..])
            ]
        );
        // Frames are the raw on-disk bytes, back to back after the header.
        assert_eq!(scan.frames[0].offset, SEGMENT_HEADER_LEN);
        assert_eq!(scan.frames[0].bytes, &encode_record(7, b"alpha")[..]);
        assert_eq!(scan.frames[1].offset, scan.frames[0].end());
        assert_eq!(scan.frames[2].end(), bytes.len());
    }

    #[test]
    fn every_truncation_of_the_last_segment_yields_the_complete_prefix() {
        let payloads: [&[u8]; 3] = [b"first", b"second-record", b"x"];
        let bytes = segment_bytes(0, &payloads);
        // Record boundaries, to know which prefix each cut should keep.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        for p in payloads {
            boundaries.push(boundaries.last().unwrap() + RECORD_OVERHEAD + p.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan_segment(&bytes[..cut], 0, true, "t").unwrap();
            if cut < SEGMENT_HEADER_LEN {
                assert_eq!(scan.frames.len(), 0, "cut at {cut}");
                assert_eq!(scan.clean_len, 0, "cut at {cut}");
                assert_eq!(scan.torn_bytes as usize, cut, "cut at {cut}");
                continue;
            }
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.frames.len(), complete, "cut at {cut}");
            assert_eq!(
                scan.clean_len as usize, boundaries[complete],
                "clean prefix at cut {cut}"
            );
            assert_eq!(
                scan.torn_bytes as usize,
                cut - boundaries[complete],
                "torn bytes at cut {cut}"
            );
        }
    }

    #[test]
    fn closed_segments_reject_torn_tails_typed() {
        let bytes = segment_bytes(0, &[b"first", b"second"]);
        let cut = bytes.len() - 3;
        let err = scan_segment(&bytes[..cut], 0, false, "00.seg").unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        // Shorter than the header is corrupt too (for a closed segment).
        let err = scan_segment(&bytes[..10], 0, false, "00.seg").unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn bitflips_are_corrupt_not_torn() {
        let bytes = segment_bytes(0, &[b"payload-one", b"payload-two"]);
        // Flip one payload byte of the *first* record: a complete frame
        // with a bad checksum, even though a valid record follows.
        let mut flipped = bytes.clone();
        flipped[SEGMENT_HEADER_LEN + 13] ^= 0xFF;
        let err = scan_segment(&flipped, 0, true, "t").unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { ref reason, .. } if reason.contains("checksum")),
            "{err}"
        );
    }

    /// A headerless run of frames — a segment's tail or a replication
    /// shipment — validates exactly like the same frames inside a
    /// segment, with offsets counted from the run's first byte.
    #[test]
    fn scan_frames_validates_a_headerless_run_like_a_segment() {
        let whole = segment_bytes(4, &[b"one", b"two-longer", b"3"]);
        let seg = scan_segment(&whole, 4, false, "t").unwrap();
        // Start mid-segment, at the second record's frame boundary.
        let tail = &whole[seg.frames[1].offset..];
        let scan = scan_frames(tail, 5, false, "t").unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].offset, 0);
        assert_eq!(scan.frames[0].bytes, seg.frames[1].bytes);
        assert_eq!(scan.frames[1].lsn, 6);
        assert_eq!(scan.clean_len as usize, tail.len());
        // A first frame at any LSN but the expected one is out of
        // sequence, above it as much as below.
        for expected in [4, 6] {
            let err = scan_frames(tail, expected, false, "t").unwrap_err();
            assert!(
                matches!(err, WalError::Corrupt { offset: 0, ref reason, .. } if reason.contains("out of sequence")),
                "{err}"
            );
        }
        // A cut is torn in the last segment, corrupt anywhere else, and
        // a flipped byte is corrupt either way, at the frame's offset.
        let cut = &tail[..tail.len() - 2];
        let scan = scan_frames(cut, 5, true, "t").unwrap();
        assert_eq!((scan.frames.len(), scan.torn_bytes), (1, 19));
        assert!(scan_frames(cut, 5, false, "t").is_err());
        let mut flipped = tail.to_vec();
        let second = scan.frames[0].end();
        flipped[second + 13] ^= 0x40;
        let err = scan_frames(&flipped, 5, true, "t").unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { offset, ref reason, .. }
                if offset == second as u64 && reason.contains("checksum")),
            "{err}"
        );
        // The empty run is valid and empty.
        assert!(scan_frames(&[], 0, false, "t").unwrap().frames.is_empty());
    }

    #[test]
    fn header_validation_is_typed() {
        let good = segment_bytes(3, &[b"x"]);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            scan_segment(&bad_magic, 3, true, "t"),
            Err(WalError::NotASegment { .. })
        ));
        let mut bumped = good.clone();
        bumped[8..10].copy_from_slice(&2u16.to_le_bytes());
        assert!(matches!(
            scan_segment(&bumped, 3, true, "t"),
            Err(WalError::VersionMismatch {
                found: 2,
                expected: SEGMENT_VERSION
            })
        ));
        // Header base and name base must agree.
        assert!(matches!(
            scan_segment(&good, 4, true, "t"),
            Err(WalError::Corrupt { .. })
        ));
        // A partial header in the last segment is a torn birth, not an error.
        let scan = scan_segment(&good[..5], 3, true, "t").unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.clean_len, 0);
        assert_eq!(scan.torn_bytes, 5);
    }

    /// The log has no holes: a segment's first record is its base and
    /// each next one the previous + 1. A skip is damage like a step back
    /// or a first record past the base, refused at the frame that breaks
    /// the sequence.
    #[test]
    fn an_lsn_skip_inside_a_segment_is_corrupt() {
        for (lsns, at) in [([5, 7, 8], 1), ([5, 6, 6], 2), ([6, 7, 8], 0)] {
            let mut bytes = segment_header(5);
            for lsn in lsns {
                bytes.extend_from_slice(&encode_record(lsn, b"a"));
            }
            let offset = (SEGMENT_HEADER_LEN + at * (RECORD_OVERHEAD + 1)) as u64;
            let err = scan_segment(&bytes, 5, true, "t").unwrap_err();
            assert!(
                matches!(err, WalError::Corrupt { offset: o, ref reason, .. }
                    if o == offset && reason.contains("out of sequence")),
                "{lsns:?}: {err}"
            );
        }
    }

    #[test]
    fn dir_scan_orders_segments_and_ignores_foreign_files() {
        let dir = Dir::memory();
        let write = |name: &str, bytes: &[u8]| dir.write_atomic(name, bytes).unwrap();
        write(&segment_file_name(0), &segment_bytes(0, &[b"a", b"b"]));
        write(&segment_file_name(2), &segment_bytes(2, &[b"c"]));
        write("notes.txt", b"not a segment");
        write("0.seg.tmp", b"crashed compactor");
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.segments.len(), 2);
        assert_eq!(scan.next_lsn, 3);
        assert_eq!(scan.torn_bytes, 0);
        let lsns: Vec<u64> = scan.records().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![0, 1, 2]);
        // The first segment may start anywhere (compaction removes a
        // prefix); every later one where its predecessor's records end.
        write(&segment_file_name(3), &segment_bytes(3, &[b"d"]));
        dir.remove(&segment_file_name(0)).unwrap();
        assert_eq!(scan_dir(&dir).unwrap().next_lsn, 4);
        // Overlapping bases across files are corrupt.
        write(&segment_file_name(0), &segment_bytes(0, &[b"a", b"b"]));
        write(&segment_file_name(1), &segment_bytes(1, &[b"x"]));
        assert!(matches!(scan_dir(&dir), Err(WalError::Corrupt { .. })));
    }

    /// A missing middle segment is a gap between its neighbours: the
    /// scan refuses the segment after it.
    #[test]
    fn a_missing_middle_segment_is_corrupt() {
        let dir = Dir::memory();
        for (base, payloads) in [(0, &[&b"a"[..], b"b"][..]), (2, &[b"c"]), (3, &[b"d"])] {
            dir.write_atomic(&segment_file_name(base), &segment_bytes(base, payloads))
                .unwrap();
        }
        assert_eq!(scan_dir(&dir).unwrap().next_lsn, 4);
        dir.remove(&segment_file_name(2)).unwrap();
        let err = scan_dir(&dir).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { ref segment, ref reason, .. }
                if *segment == segment_file_name(3) && reason.contains("where lsn 2 was expected")),
            "{err}"
        );
    }

    #[test]
    fn missing_dir_scans_empty() {
        let scan = scan_dir(&Dir::memory().join("not-here")).unwrap();
        assert!(scan.segments.is_empty());
        assert_eq!(scan.next_lsn, 0);
    }

    /// The storage conformance body: what a caller observes through a
    /// [`Dir`] is the same on both backends.
    fn conforms(root: Dir) {
        use std::io::ErrorKind::NotFound;
        let missing = root.join("missing");
        assert_eq!(missing.list().unwrap_err().kind(), NotFound);
        assert_eq!(list_segments(&missing).unwrap_err().kind(), NotFound);
        assert_eq!(root.read("absent", 0).unwrap_err().kind(), NotFound);
        assert_eq!(root.open("absent").unwrap_err().kind(), NotFound);
        let orphan = missing.write_atomic("file", b"x").unwrap_err();
        assert_eq!(orphan.kind(), NotFound);

        let dir = root.join("a").join("b");
        dir.create_dir_all().unwrap();
        dir.create_dir_all().unwrap();
        assert!(dir.list().unwrap().is_empty());

        // A read from an offset returns the suffix; past the end, nothing.
        let seg = segment_file_name(0);
        dir.write_atomic(&seg, b"0123456789").unwrap();
        assert_eq!(dir.read(&seg, 0).unwrap(), b"0123456789");
        assert_eq!(dir.read(&seg, 7).unwrap(), b"789");
        assert!(dir.read(&seg, 99).unwrap().is_empty());

        // After a truncate, the next append lands at the cut.
        let file = dir.open(&seg).unwrap();
        file.truncate(4).unwrap();
        file.append(b"xy").unwrap();
        file.sync_data().unwrap();
        assert_eq!(dir.read(&seg, 0).unwrap(), b"0123xy");

        // The rename of an atomic write replaces an existing file; the
        // open handle keeps the file it had.
        dir.write_atomic(&seg, b"replacement").unwrap();
        assert_eq!(dir.read(&seg, 0).unwrap(), b"replacement");
        file.append(b"z").unwrap();
        assert_eq!(dir.read(&seg, 0).unwrap(), b"replacement");
        let next = segment_file_name(5);
        let created = dir.create_durable(&next, b"HDR").unwrap();
        created.append(b"+rec").unwrap();
        assert_eq!(dir.read(&next, 0).unwrap(), b"HDR+rec");

        // `list` returns foreign names, and `list_segments` skips them.
        dir.join("sub").create_dir_all().unwrap();
        let mut names = dir.list().unwrap();
        names.sort();
        assert_eq!(names, [seg.as_str(), next.as_str(), "sub"]);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments, [(0, seg.clone()), (5, next.clone())]);

        // `remove` takes one away; a second finds nothing.
        dir.remove(&seg).unwrap();
        let mut names = dir.list().unwrap();
        names.sort();
        assert_eq!(names, [next.as_str(), "sub"]);
        assert_eq!(dir.remove(&seg).unwrap_err().kind(), NotFound);

        // A directory has one claim at a time, under any spelling; a
        // missing one cannot be claimed, and a dropped claim frees it.
        let claim = dir.claim().unwrap();
        let busy = dir.join(".").claim().unwrap_err();
        assert_eq!(busy.kind(), std::io::ErrorKind::ResourceBusy);
        assert_eq!(missing.claim().unwrap_err().kind(), NotFound);
        drop(dir.join("sub").claim().unwrap());
        drop(claim);
        drop(dir.claim().unwrap());
    }

    #[test]
    fn storage_backends_conform() {
        conforms(Dir::memory());
        let tmp = std::env::temp_dir().join(format!("pitract-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        conforms(Dir::from(&tmp));
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
