//! The one container both on-disk formats share: an 8-byte magic, a
//! `u32` version, a `u32` section count, tagged sections, and a trailing
//! CRC-32 over every byte before it.
//!
//! The checkpoint ([`CkptWriter`] / [`CkptReader`], normative spec
//! `docs/CHECKPOINT_FORMAT.md`) pads every section to 8 bytes and admits
//! any tags. The corpus shard (`matsciml-datasets`' `shard` module,
//! `docs/SHARD_FORMAT.md`) frames a fixed, unpadded META/INDX/DATA
//! triple with the same helpers. So the helpers take the magic and
//! version as arguments and leave padding to the caller.

use std::fmt;
use std::ops::Range;
use std::path::Path;

use crate::write_durable;

/// File magic: a non-ASCII lead byte (catches text-mode mangling and
/// foreign files immediately) followed by `MCKPT` and a CRLF pair
/// (catches newline translation), in the spirit of the PNG signature.
pub const MAGIC: [u8; 8] = [0x89, b'M', b'C', b'K', b'P', b'T', 0x0D, 0x0A];

/// Current (and only) container format version.
pub const VERSION: u32 = 1;

/// `magic + version + section count`.
pub const HEADER_LEN: usize = 16;

/// `tag + payload length`.
pub const SECTION_HEADER_LEN: usize = 16;

/// Every defect a container file can exhibit, as a typed error. Corrupt
/// or foreign input must land in one of these variants — decoding never
/// panics.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file declares a container version this reader cannot parse.
    UnsupportedVersion(u32),
    /// The file ends before its declared structure does.
    Truncated {
        /// What the reader was parsing when the bytes ran out.
        context: &'static str,
    },
    /// The trailing CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// A required section is absent.
    MissingSection(&'static str),
    /// Structurally invalid content inside an otherwise intact file.
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a matsciml-ckpt file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (reader supports {VERSION})")
            }
            CkptError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CkptError::MissingSection(tag) => {
                write!(f, "checkpoint is missing required section `{tag}`")
            }
            CkptError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// 256-entry table for the reflected `0xEDB88320` polynomial, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3): reflected polynomial `0xEDB88320`, initial value
/// `0xFFFFFFFF`, final XOR `0xFFFFFFFF` — the same parameterization as
/// zlib/PNG, so third-party tooling can verify files with stock
/// libraries. Table-driven: shards run to hundreds of megabytes and a
/// paper-width checkpoint to tens.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Start a container in `out`: magic, version, section count.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 8], version: u32, sections: u32) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&sections.to_le_bytes());
}

/// Append one section: its tag, its `u64` payload length, the payload.
/// Padding, if the format wants any, is the caller's to append.
pub fn put_section(out: &mut Vec<u8>, tag: &[u8; 8], payload: &[u8]) {
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Close a container: append the CRC-32 of every byte in `out` and
/// return it.
pub fn seal(out: &mut Vec<u8>) -> u32 {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
    crc
}

/// Check a sealed container's trailing CRC-32 against the bytes before
/// it.
pub fn check_seal(bytes: &[u8]) -> Result<(), CkptError> {
    let Some(body_end) = bytes.len().checked_sub(4) else {
        return Err(CkptError::Truncated { context: "checksum" });
    };
    let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// A cursor over a container's sections: the bytes between the header
/// and the trailing checksum.
pub struct Sections<'a> {
    body: ByteReader<'a>,
    count: u32,
}

impl<'a> Sections<'a> {
    /// Check the header of `bytes` against `magic` and `version`, in the
    /// order both specs fix: fewer than 8 bytes is `Truncated`, a foreign
    /// magic `BadMagic`, a short header `Truncated`, another version
    /// `UnsupportedVersion`.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Self, CkptError> {
        if bytes.len() < 8 {
            return Err(CkptError::Truncated { context: "magic" });
        }
        if bytes[..8] != magic[..] {
            return Err(CkptError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(CkptError::Truncated { context: "header" });
        }
        let mut header = ByteReader::new(&bytes[8..HEADER_LEN]);
        let found = header.get_u32("version")?;
        if found != version {
            return Err(CkptError::UnsupportedVersion(found));
        }
        let count = header.get_u32("section count")?;
        if bytes.len() < HEADER_LEN + 4 {
            return Err(CkptError::Truncated { context: "checksum" });
        }
        let body = ByteReader { buf: &bytes[..bytes.len() - 4], pos: HEADER_LEN };
        Ok(Sections { body, count })
    }

    /// The section count the header declares.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Read the next section header and step over its payload. Returns
    /// the tag and the payload's byte range in the container; a header or
    /// payload that runs into the checksum is `Truncated { context }`.
    pub fn next(&mut self, context: &'static str) -> Result<([u8; 8], Range<usize>), CkptError> {
        if self.body.remaining() < SECTION_HEADER_LEN {
            return Err(CkptError::Truncated { context });
        }
        let tag = self.body.get_bytes(8, context)?.try_into().expect("8 bytes");
        let len = usize::try_from(self.body.get_u64(context)?)
            .map_err(|_| CkptError::Malformed("section length overflows usize".into()))?;
        let start = self.body.pos;
        self.skip(len, context)?;
        Ok((tag, start..self.body.pos))
    }

    /// Step over `n` bytes the format places between sections (the
    /// checkpoint's alignment padding).
    pub fn skip(&mut self, n: usize, context: &'static str) -> Result<(), CkptError> {
        match self.body.get_bytes(n, context) {
            Ok(_) => Ok(()),
            Err(_) => Err(CkptError::Truncated { context }),
        }
    }

    /// Require the last section to end exactly where the checksum starts.
    pub fn finish(&self) -> Result<(), CkptError> {
        self.body.finish("the last section")
    }
}

/// Pad a tag to its 8-byte on-disk form; panics on tags the spec forbids
/// (tags are compile-time constants, so this is a programming error, not
/// an input error).
fn tag_bytes(tag: &str) -> [u8; 8] {
    assert!(
        !tag.is_empty() && tag.len() <= 8,
        "section tag `{tag}` must be 1..=8 bytes"
    );
    assert!(
        tag.bytes().all(|b| b.is_ascii_graphic()),
        "section tag `{tag}` must be ASCII graphic characters"
    );
    let mut out = [b' '; 8];
    out[..tag.len()].copy_from_slice(tag.as_bytes());
    out
}

/// Zero-padding needed to align `len` up to an 8-byte boundary.
fn pad_len(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Assembles a checkpoint file: add sections in order, then write.
#[derive(Default)]
pub struct CkptWriter {
    sections: Vec<([u8; 8], Vec<u8>)>,
}

impl CkptWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Tags must be unique within one file.
    pub fn section(&mut self, tag: &str, payload: Vec<u8>) -> &mut Self {
        let tb = tag_bytes(tag);
        assert!(
            self.sections.iter().all(|(t, _)| *t != tb),
            "duplicate section tag `{tag}`"
        );
        self.sections.push((tb, payload));
        self
    }

    /// Serialize to the full on-disk byte stream (magic through checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self
            .sections
            .iter()
            .map(|(_, p)| SECTION_HEADER_LEN + p.len() + pad_len(p.len()))
            .sum();
        let mut out = Vec::with_capacity(HEADER_LEN + body + 4);
        put_header(&mut out, &MAGIC, VERSION, self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            put_section(&mut out, tag, payload);
            out.resize(out.len() + pad_len(payload.len()), 0);
        }
        seal(&mut out);
        out
    }

    /// Write the file through [`write_durable`] (parent directories
    /// created; the old file, if any, is replaced atomically), returning
    /// the byte count on disk.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<u64, CkptError> {
        let bytes = self.to_bytes();
        write_durable(path, &bytes)?;
        Ok(bytes.len() as u64)
    }
}

/// A parsed checkpoint: validated magic, version, structure, and
/// checksum, with sections addressable by tag. Unknown tags are retained
/// but ignored — the v1 forward-compatibility rule.
pub struct CkptReader {
    bytes: Vec<u8>,
    /// Tag and payload range of each section, in file order.
    sections: Vec<([u8; 8], Range<usize>)>,
}

impl CkptReader {
    /// Parse and validate a full checkpoint byte stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        Self::parse(bytes.to_vec())
    }

    /// Read and validate a checkpoint file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        Self::parse(std::fs::read(path)?)
    }

    fn parse(bytes: Vec<u8>) -> Result<Self, CkptError> {
        // Structural parse first (so a mid-section EOF reports Truncated,
        // not a checksum mismatch against garbage), checksum second.
        let mut walk = Sections::open(&bytes, &MAGIC, VERSION)?;
        let mut sections = Vec::new();
        for _ in 0..walk.count() {
            let (tag, payload) = walk.next("section")?;
            walk.skip(pad_len(payload.len()), "section padding")?;
            sections.push((tag, payload));
        }
        walk.finish()?;
        check_seal(&bytes)?;
        Ok(CkptReader { bytes, sections })
    }

    /// Container version of the parsed file (the only one it can be).
    pub fn version(&self) -> u32 {
        VERSION
    }

    /// Payload of the first section with `tag`, if present.
    pub fn section(&self, tag: &str) -> Option<&[u8]> {
        let tb = tag_bytes(tag);
        self.sections
            .iter()
            .find(|(t, _)| *t == tb)
            .map(|(_, range)| &self.bytes[range.clone()])
    }

    /// Like [`CkptReader::section`], erroring with
    /// [`CkptError::MissingSection`] when absent.
    pub fn require(&self, tag: &'static str) -> Result<&[u8], CkptError> {
        self.section(tag).ok_or(CkptError::MissingSection(tag))
    }

    /// All section tags in file order (trailing padding stripped),
    /// including ones this reader has no codec for.
    pub fn tags(&self) -> Vec<String> {
        self.sections
            .iter()
            .map(|(t, _)| String::from_utf8_lossy(t).trim_end().to_string())
            .collect()
    }
}

/// Little-endian payload encoder: the primitive layer every section
/// payload is built from (integers LE; floats as IEEE-754 bit patterns;
/// strings length-prefixed UTF-8).
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes (length must be recoverable from context).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Finish, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a section payload, mirroring [`ByteWriter`]. Runs past the
/// payload end surface as [`CkptError::Malformed`] — the container
/// checksum already passed, so a short payload is a codec-level defect,
/// not file corruption.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.get_bytes(4, what)?.try_into().expect("4 bytes")))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.get_bytes(8, what)?.try_into().expect("8 bytes")))
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self, what: &str) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32(what)?))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, CkptError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.get_bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Malformed(format!("{what}: invalid UTF-8")))
    }

    /// Require the payload to end here: bytes left after `what` are
    /// [`CkptError::Malformed`].
    pub fn finish(&self, what: &str) -> Result<(), CkptError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CkptError::Malformed(format!("{n} stray bytes after {what}"))),
        }
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Malformed(format!(
                "payload exhausted reading {what} (need {n} bytes, have {})",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_the_zlib_check_value() {
        // Standard check value for this parameterization.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn writer_reproduces_the_spec_worked_example() {
        // docs/CHECKPOINT_FORMAT.md, "Worked example": 44 bytes, CRC
        // 0x0E6F991F.
        let expect: [u8; 44] = [
            0x89, 0x4d, 0x43, 0x4b, 0x50, 0x54, 0x0d, 0x0a, // magic
            0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // version, count
            0x44, 0x45, 0x4d, 0x4f, 0x20, 0x20, 0x20, 0x20, // "DEMO    "
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // length 3
            0x01, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, // payload + pad
            0x1f, 0x99, 0x6f, 0x0e, // CRC-32
        ];
        let mut w = CkptWriter::new();
        w.section("DEMO", vec![1, 2, 3]);
        assert_eq!(w.to_bytes(), expect);
        let r = CkptReader::from_bytes(&expect).unwrap();
        assert_eq!(r.section("DEMO"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn a_crafted_section_count_is_truncated_not_an_abort() {
        // The count once sized a preallocation before any section was read.
        let mut bytes = Vec::new();
        put_header(&mut bytes, &MAGIC, VERSION, u32::MAX);
        seal(&mut bytes);
        assert!(matches!(CkptReader::from_bytes(&bytes), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn container_roundtrip_preserves_sections() {
        let mut w = CkptWriter::new();
        w.section("ALPHA", vec![1, 2, 3]).section("BETA", vec![]);
        let bytes = w.to_bytes();
        // Sections are 8-byte aligned: 16 header + 16+3+5 + 16+0 + 4 crc.
        assert_eq!(bytes.len(), 16 + 24 + 16 + 4);
        let r = CkptReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.version(), VERSION);
        assert_eq!(r.section("ALPHA"), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.section("BETA"), Some(&[][..]));
        assert_eq!(r.section("GAMMA"), None);
        assert_eq!(r.tags(), vec!["ALPHA", "BETA"]);
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        let mut w = CkptWriter::new();
        w.section("KNOWN", vec![7; 11]).section("FUTURE", vec![9; 23]);
        let r = CkptReader::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(r.section("KNOWN"), Some(&[7u8; 11][..]));
        // A reader with no FUTURE codec still sees KNOWN and validates.
        assert!(r.require("KNOWN").is_ok());
        assert!(matches!(r.require("ABSENT"), Err(CkptError::MissingSection("ABSENT"))));
    }

    #[test]
    fn byte_codec_roundtrips_primitives() {
        let mut w = ByteWriter::new();
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_str("naïve");
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.get_u32("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32("c").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64("d").unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_str("e").unwrap(), "naïve");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u32("past end"), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        // The payload-level contract behind bit-identical resume: even
        // non-finite values round-trip exactly.
        let weird = f32::from_bits(0x7FC0_1234); // a signaling-ish NaN payload
        let mut w = ByteWriter::new();
        w.put_f32(weird);
        let payload = w.into_bytes();
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.get_f32("nan").unwrap().to_bits(), 0x7FC0_1234);
    }
}
