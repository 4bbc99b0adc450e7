//! The `matsciml-shard/v1` on-disk shard: the binary container the
//! streaming data layer reads samples out of without ever materializing
//! an epoch.
//!
//! The container is `matsciml-ckpt`'s — an 8-byte magic with a non-ASCII
//! lead byte, a little-endian version word, tagged sections, and a
//! trailing CRC-32 in the zlib/PNG parameterization, framed, walked and
//! sealed by that crate's helpers — but the shard is tuned for *partial*
//! reads: a shard may be hundreds of megabytes,
//! and a training run touches its records in shuffled order, so the
//! reader must be able to validate a file and seek to any record without
//! scanning the data payload. Three sections in fixed order make that
//! possible:
//!
//! - `META` — sample count, dataset code, record-format version, and a
//!   CRC-32 over the `INDX` payload (so the seek table is
//!   integrity-checked at open without touching `DATA`).
//! - `INDX` — `count + 1` little-endian `u64` offsets into the `DATA`
//!   payload; record `i` occupies `[off[i], off[i+1])`, giving O(1) seek.
//! - `DATA` — fixed-layout sample records, back to back.
//!
//! The trailing whole-file CRC-32 is deliberately *not* verified at open
//! (that would read every byte and defeat streaming); it exists for
//! [`ShardReader::verify`], which the shard writer runs after producing a
//! file and `shard-write --verify` exposes from the CLI. See
//! `docs/SHARD_FORMAT.md` for the normative byte-level spec.
//!
//! Storage sits behind [`ShardStorage`]: on Linux/x86-64 the reader
//! memory-maps the file (records decode straight out of the page cache,
//! zero copies, no per-record syscalls) and falls back to a fully
//! buffered read elsewhere or when mapping fails. Shards are written
//! through [`write_durable`], so a path is only ever replaced, never
//! rewritten in place.

use std::fmt;
use std::path::Path;

use crate::sample::{DatasetId, Sample, Targets};
use matsciml_ckpt::{
    check_seal, crc32, put_header, put_section, seal, write_durable, ByteReader, ByteWriter,
    CkptError, Sections, HEADER_LEN, SECTION_HEADER_LEN,
};
use matsciml_graph::MaterialGraph;
use matsciml_tensor::Vec3;

/// File magic: non-ASCII lead byte, `MSHRD`, CRLF — same trap layout as
/// the `matsciml-ckpt` magic (text-mode mangling and newline translation
/// are caught immediately).
pub const SHARD_MAGIC: [u8; 8] = [0x89, b'M', b'S', b'H', b'R', b'D', 0x0D, 0x0A];

/// Current (and only) shard container version.
pub const SHARD_VERSION: u32 = 1;

/// Current (and only) record-format version carried in `META`.
pub const RECORD_VERSION: u32 = 1;

/// Canonical shard file extension.
pub const SHARD_EXT: &str = "mshard";

const TAG_META: [u8; 8] = *b"META    ";
const TAG_INDX: [u8; 8] = *b"INDX    ";
const TAG_DATA: [u8; 8] = *b"DATA    ";
/// `count u64, dataset u32, record version u32, index crc u32, reserved u32`.
const META_LEN: usize = 24;

/// Every defect a shard file can exhibit, as a typed error — decoding
/// never panics on foreign or corrupt input.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`SHARD_MAGIC`] — not a shard.
    BadMagic,
    /// The file declares a container or record version this reader cannot
    /// parse.
    UnsupportedVersion(u32),
    /// The file ends before its declared structure does.
    Truncated {
        /// What the reader was parsing when the bytes ran out.
        context: &'static str,
    },
    /// A stored CRC-32 does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksum failed (`"index"` or `"file"`).
        what: &'static str,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the covered bytes.
        computed: u32,
    },
    /// Structurally invalid content inside an otherwise intact file.
    Malformed(String),
    /// A record's stored precomputed edge list disagrees with a fresh
    /// graph rebuild from the stored positions (see
    /// `verify_precomputed_edges` in the stream module): either the
    /// corpus was written with different transform parameters than the
    /// verifier was given, or the records were corrupted in a way the
    /// CRC cannot see (e.g. rewritten wholesale).
    EdgeMismatch {
        /// Corpus-global index of the offending record.
        index: usize,
        /// Directed edge count stored in the record.
        stored_edges: usize,
        /// Directed edge count of the fresh rebuild.
        rebuilt_edges: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::BadMagic => write!(f, "not a matsciml-shard file (bad magic)"),
            ShardError::UnsupportedVersion(v) => {
                write!(f, "unsupported shard version {v} (reader supports {SHARD_VERSION})")
            }
            ShardError::Truncated { context } => {
                write!(f, "shard truncated while reading {context}")
            }
            ShardError::ChecksumMismatch { what, stored, computed } => write!(
                f,
                "shard {what} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ShardError::Malformed(msg) => write!(f, "malformed shard: {msg}"),
            ShardError::EdgeMismatch {
                index,
                stored_edges,
                rebuilt_edges,
            } => write!(
                f,
                "precomputed edges for record {index} disagree with a fresh rebuild \
                 ({stored_edges} stored vs {rebuilt_edges} rebuilt edges)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// The container layer's errors, in shard terms: its one checksum is the
/// trailing whole-file CRC.
impl From<CkptError> for ShardError {
    fn from(e: CkptError) -> Self {
        match e {
            CkptError::Io(e) => ShardError::Io(e),
            CkptError::BadMagic => ShardError::BadMagic,
            CkptError::UnsupportedVersion(v) => ShardError::UnsupportedVersion(v),
            CkptError::Truncated { context } => ShardError::Truncated { context },
            CkptError::ChecksumMismatch { stored, computed } => ShardError::ChecksumMismatch {
                what: "file",
                stored,
                computed,
            },
            CkptError::MissingSection(tag) => {
                ShardError::Malformed(format!("missing section `{tag}`"))
            }
            CkptError::Malformed(msg) => ShardError::Malformed(msg),
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

// Target-presence mask bits (record byte 1).
const T_BAND_GAP: u8 = 1 << 0;
const T_FERMI: u8 = 1 << 1;
const T_FORMATION: u8 = 1 << 2;
const T_ENERGY: u8 = 1 << 3;
const T_SYM_LABEL: u8 = 1 << 4;
const T_STABLE: u8 = 1 << 5;
// Flag bits (record byte 2).
const F_STABLE_VALUE: u8 = 1 << 0;
const F_FORCES: u8 = 1 << 1;
const F_EDGES: u8 = 1 << 2;

/// Append the fixed-layout record for `sample` to `out`, returning the
/// encoded length. The layout (all little-endian) is:
/// `dataset u8, target-mask u8, flags u8, reserved u8, n_atoms u32,
/// n_edges u32, species n×u32, positions n×3×f32, [src e×u32, dst
/// e×u32,] present targets in mask-bit order, [forces n×3×f32]`.
/// Floats are stored as IEEE-754 bit patterns, so decoding reproduces
/// the sample bit-exactly.
pub fn encode_record(sample: &Sample, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let g = &sample.graph;
    let t = &sample.targets;
    let scalars = [
        (T_BAND_GAP, t.band_gap),
        (T_FERMI, t.fermi_energy),
        (T_FORMATION, t.formation_energy),
        (T_ENERGY, t.energy),
    ];
    let mut mask = scalars
        .iter()
        .filter(|(_, v)| v.is_some())
        .fold(0, |m, (bit, _)| m | bit);
    let mut flags = 0u8;
    if t.sym_label.is_some() {
        mask |= T_SYM_LABEL;
    }
    if let Some(stable) = t.stable {
        mask |= T_STABLE;
        if stable {
            flags |= F_STABLE_VALUE;
        }
    }
    if sample.forces.is_some() {
        flags |= F_FORCES;
    }
    if g.num_edges() > 0 {
        flags |= F_EDGES;
    }
    out.extend_from_slice(&[sample.dataset.code(), mask, flags, 0]);
    put_u32s(out, &[g.num_nodes() as u32, g.num_edges() as u32]);
    put_u32s(out, &g.species);
    put_vec3s(out, &g.positions);
    if flags & F_EDGES != 0 {
        put_u32s(out, &g.src);
        put_u32s(out, &g.dst);
    }
    for v in scalars.iter().filter_map(|&(_, v)| v) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if let Some(label) = t.sym_label {
        out.extend_from_slice(&label.to_le_bytes());
    }
    if let Some(forces) = &sample.forces {
        debug_assert_eq!(forces.len(), g.num_nodes(), "one force per atom");
        put_vec3s(out, forces);
    }
    out.len() - start
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_vec3s(out: &mut Vec<u8>, values: &[Vec3]) {
    for p in values {
        for c in [p.x, p.y, p.z] {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
}

fn get_u32s(r: &mut ByteReader<'_>, n: usize, what: &str) -> Result<Vec<u32>, CkptError> {
    let bytes = r.get_bytes(n.saturating_mul(4), what)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

fn get_vec3s(r: &mut ByteReader<'_>, n: usize, what: &str) -> Result<Vec<Vec3>, CkptError> {
    let bytes = r.get_bytes(n.saturating_mul(12), what)?;
    Ok(bytes
        .chunks_exact(12)
        .map(|c| {
            Vec3::new(
                f32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                f32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                f32::from_le_bytes(c[8..12].try_into().expect("4 bytes")),
            )
        })
        .collect())
}

/// Decode one record previously produced by [`encode_record`].
pub fn decode_record(bytes: &[u8]) -> Result<Sample, ShardError> {
    let mut r = ByteReader::new(bytes);
    let head = r.get_bytes(4, "record header")?;
    let dataset = DatasetId::from_code(head[0]).ok_or_else(|| {
        ShardError::Malformed(format!("unknown dataset code {}", head[0]))
    })?;
    let (mask, flags) = (head[1], head[2]);
    let n_atoms = r.get_u32("atom count")? as usize;
    let n_edges = r.get_u32("edge count")? as usize;
    let species = get_u32s(&mut r, n_atoms, "species")?;
    let positions = get_vec3s(&mut r, n_atoms, "positions")?;
    let (src, dst) = if flags & F_EDGES != 0 {
        (
            get_u32s(&mut r, n_edges, "edge sources")?,
            get_u32s(&mut r, n_edges, "edge destinations")?,
        )
    } else if n_edges != 0 {
        return Err(ShardError::Malformed(format!(
            "record declares {n_edges} edges but the edge flag is clear"
        )));
    } else {
        (Vec::new(), Vec::new())
    };
    let targets = Targets {
        band_gap: (mask & T_BAND_GAP != 0).then(|| r.get_f32("band_gap")).transpose()?,
        fermi_energy: (mask & T_FERMI != 0).then(|| r.get_f32("fermi_energy")).transpose()?,
        formation_energy: (mask & T_FORMATION != 0)
            .then(|| r.get_f32("formation_energy"))
            .transpose()?,
        energy: (mask & T_ENERGY != 0).then(|| r.get_f32("energy")).transpose()?,
        sym_label: (mask & T_SYM_LABEL != 0).then(|| r.get_u32("sym_label")).transpose()?,
        stable: (mask & T_STABLE != 0).then_some(flags & F_STABLE_VALUE != 0),
    };
    let forces = if flags & F_FORCES != 0 {
        Some(get_vec3s(&mut r, n_atoms, "forces")?)
    } else {
        None
    };
    r.finish("the record")?;
    let mut graph = MaterialGraph::new(species, positions);
    graph.src = src;
    graph.dst = dst;
    Ok(Sample { dataset, graph, targets, forces })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// What [`ShardWriter::write`] produced — the manifest entry's raw
/// material.
#[derive(Debug, Clone, Copy)]
pub struct ShardFileInfo {
    /// Records in the shard.
    pub samples: u64,
    /// Total file size on disk.
    pub bytes: u64,
    /// The file's trailing CRC-32 (covers every preceding byte).
    pub crc32: u32,
}

/// Assembles one shard file: push samples, then write. Records are
/// encoded into a single growing buffer, so writer memory is bounded by
/// one shard — the corpus writer streams arbitrarily large datasets
/// through a sequence of these.
#[derive(Default)]
pub struct ShardWriter {
    data: Vec<u8>,
    offsets: Vec<u64>,
    dataset: Option<DatasetId>,
}

impl ShardWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sample's record.
    pub fn push(&mut self, sample: &Sample) {
        self.offsets.push(self.data.len() as u64);
        encode_record(sample, &mut self.data);
        self.dataset = Some(DatasetId::merge(self.dataset, sample.dataset));
    }

    /// Records pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Provenance of the records pushed so far: `None` while empty, the
    /// common [`DatasetId`] when uniform, [`DatasetId::Mixed`] otherwise.
    pub fn dataset(&self) -> Option<DatasetId> {
        self.dataset
    }

    /// True when no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Serialize to the full on-disk byte stream (magic through trailing
    /// CRC). Panics on an empty writer — zero-record shards are forbidden
    /// by the spec.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(!self.is_empty(), "cannot write an empty shard");
        let count = self.offsets.len();
        let mut indx = ByteWriter::new();
        for off in self.offsets.iter().copied().chain([self.data.len() as u64]) {
            indx.put_u64(off);
        }
        let indx = indx.into_bytes();
        let mut meta = ByteWriter::new();
        meta.put_u64(count as u64);
        meta.put_u32(self.dataset.expect("non-empty shard has a dataset").code().into());
        meta.put_u32(RECORD_VERSION);
        meta.put_u32(crc32(&indx));
        meta.put_u32(0);
        let meta = meta.into_bytes();

        let len = HEADER_LEN + 3 * SECTION_HEADER_LEN + META_LEN + indx.len() + self.data.len();
        let mut out = Vec::with_capacity(len + 4);
        put_header(&mut out, &SHARD_MAGIC, SHARD_VERSION, 3);
        // No padding: META and INDX are multiples of 8 by construction,
        // and DATA is last.
        for (tag, payload) in [(TAG_META, &meta), (TAG_INDX, &indx), (TAG_DATA, &self.data)] {
            put_section(&mut out, &tag, payload);
        }
        seal(&mut out);
        out
    }

    /// Write the shard file through [`write_durable`] (parent
    /// directories created; an existing file is replaced, never
    /// rewritten, so readers that have it mapped keep their bytes).
    pub fn write(&self, path: impl AsRef<Path>) -> Result<ShardFileInfo, ShardError> {
        let bytes = self.to_bytes();
        write_durable(path, &bytes)?;
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        Ok(ShardFileInfo {
            samples: self.offsets.len() as u64,
            bytes: bytes.len() as u64,
            crc32: crc,
        })
    }
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// How a [`ShardReader`] sees the file's bytes. One trait, two backends:
/// a zero-copy memory map (Linux/x86-64) and a fully buffered read
/// (everywhere else, and the fallback when mapping fails). Both expose
/// the entire file as one slice; the mapped backend additionally honours
/// residency hints so epoch-long streams keep a bounded RSS.
pub trait ShardStorage: Send + Sync {
    /// The whole file as one contiguous slice.
    fn bytes(&self) -> &[u8];
    /// Hint that resident pages may be dropped (they re-fault from the
    /// page cache on next touch). No-op for buffered storage.
    fn advise_dontneed(&self) {}
    /// True when the backend is a memory map (observability only).
    fn is_mapped(&self) -> bool {
        false
    }
}

/// Buffered backend: the file read into an owned allocation.
pub struct BufferedStorage(Vec<u8>);

impl ShardStorage for BufferedStorage {
    fn bytes(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod mapped {
    //! Read-only `mmap` over raw syscalls. The workspace builds
    //! hermetically (no libc crate), so the three calls the backend
    //! needs — `mmap`, `munmap`, `madvise` — are issued directly via the
    //! x86-64 `syscall` instruction, mirroring how `tensor/simd.rs`
    //! reaches below std for `core::arch` intrinsics.

    use super::ShardStorage;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const SYS_MADVISE: usize = 28;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;

    /// One raw Linux syscall (x86-64 convention: args in rdi, rsi, rdx,
    /// r10, r8, r9; rcx/r11 clobbered; negative return is `-errno`).
    #[inline]
    unsafe fn syscall6(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// A read-only private file mapping. The mapping outlives the file
    /// descriptor (closed on drop of the `File`). Truncating a mapped
    /// file would fault its readers with `SIGBUS`, but the toolkit never
    /// does: every shard write goes through `write_durable`, which
    /// renames a new inode over the path, and the old inode — with this
    /// mapping's pages — lives until the last mapping of it is dropped.
    pub struct MmapStorage {
        ptr: *const u8,
        len: usize,
    }

    // A read-only mapping of an immutable file is freely shareable.
    unsafe impl Send for MmapStorage {}
    unsafe impl Sync for MmapStorage {}

    impl MmapStorage {
        /// Map `path` read-only. Fails (so the caller can fall back to
        /// buffered reads) on empty files or any `mmap` error.
        pub fn open(path: &std::path::Path) -> std::io::Result<MmapStorage> {
            use std::os::fd::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            let ret = unsafe {
                syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, file.as_raw_fd() as usize, 0)
            };
            if ret < 0 {
                return Err(std::io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(MmapStorage { ptr: ret as *const u8, len })
        }
    }

    impl ShardStorage for MmapStorage {
        fn bytes(&self) -> &[u8] {
            // Safety: the mapping covers exactly `len` readable bytes and
            // lives until drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        fn advise_dontneed(&self) {
            // Best-effort: a failed hint only costs residency, never
            // correctness.
            unsafe {
                syscall6(SYS_MADVISE, self.ptr as usize, self.len, MADV_DONTNEED, 0, 0, 0);
            }
        }

        fn is_mapped(&self) -> bool {
            true
        }
    }

    impl Drop for MmapStorage {
        fn drop(&mut self) {
            unsafe {
                syscall6(SYS_MUNMAP, self.ptr as usize, self.len, 0, 0, 0, 0);
            }
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use mapped::MmapStorage;

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated shard: magic, version, section structure, and the index
/// checksum are checked at open (an O(index) cost); records decode on
/// demand straight from storage. The whole-file checksum is checked only
/// by [`ShardReader::verify`].
pub struct ShardReader {
    storage: Box<dyn ShardStorage>,
    count: usize,
    dataset: DatasetId,
    /// Absolute offset of the INDX payload.
    indx_off: usize,
    /// Absolute offset of the DATA payload.
    data_off: usize,
    data_len: usize,
}

impl ShardReader {
    /// Open a shard with the best available backend: memory-mapped on
    /// Linux/x86-64, buffered otherwise or when the mapping fails.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ShardError> {
        let path = path.as_ref();
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Ok(map) = MmapStorage::open(path) {
            return Self::from_storage(Box::new(map));
        }
        Self::open_buffered(path)
    }

    /// Open with the buffered backend unconditionally.
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<Self, ShardError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        Self::from_storage(Box::new(BufferedStorage(bytes)))
    }

    fn from_storage(storage: Box<dyn ShardStorage>) -> Result<Self, ShardError> {
        let b = storage.bytes();
        let mut walk = Sections::open(b, &SHARD_MAGIC, SHARD_VERSION)?;
        if walk.count() != 3 {
            return Err(ShardError::Malformed(format!(
                "expected 3 sections (META, INDX, DATA), file declares {}",
                walk.count()
            )));
        }
        let mut section = |tag: [u8; 8], context: &'static str| {
            let (found, payload) = walk.next(context)?;
            if found != tag {
                return Err(ShardError::Malformed(format!(
                    "expected section `{}`, found `{}`",
                    String::from_utf8_lossy(&tag).trim_end(),
                    String::from_utf8_lossy(&found).trim_end(),
                )));
            }
            Ok(payload)
        };
        let meta = section(TAG_META, "META section")?;
        let indx = section(TAG_INDX, "INDX section")?;
        let data = section(TAG_DATA, "DATA section")?;
        walk.finish()?;
        if meta.len() != META_LEN {
            return Err(ShardError::Malformed(format!(
                "META payload is {} bytes, spec requires {META_LEN}",
                meta.len()
            )));
        }
        let mut m = ByteReader::new(&b[meta]);
        let count = usize::try_from(m.get_u64("sample count")?)
            .map_err(|_| ShardError::Malformed("sample count overflows usize".into()))?;
        if count == 0 {
            return Err(ShardError::Malformed("zero-record shards are forbidden".into()));
        }
        let ds_code = m.get_u32("dataset code")?;
        let dataset = u8::try_from(ds_code)
            .ok()
            .and_then(DatasetId::from_code)
            .ok_or_else(|| ShardError::Malformed(format!("unknown dataset code {ds_code}")))?;
        let record_version = m.get_u32("record version")?;
        if record_version != RECORD_VERSION {
            return Err(ShardError::UnsupportedVersion(record_version));
        }
        let stored_index_crc = m.get_u32("index crc")?;
        if indx.len() != (count + 1) * 8 {
            return Err(ShardError::Malformed(format!(
                "INDX payload is {} bytes, {count} samples require {}",
                indx.len(),
                (count + 1) * 8
            )));
        }
        let (indx_off, data_off, data_len) = (indx.start, data.start, data.len());
        let indx = &b[indx];
        let computed_index_crc = crc32(indx);
        if stored_index_crc != computed_index_crc {
            return Err(ShardError::ChecksumMismatch {
                what: "index",
                stored: stored_index_crc,
                computed: computed_index_crc,
            });
        }
        // The index is now trusted bytes-wise; validate its geometry so
        // record reads can never slice out of bounds.
        let mut prev = 0u64;
        for (i, c) in indx.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(c.try_into().expect("8 bytes"));
            if i == 0 && v != 0 {
                return Err(ShardError::Malformed("first record offset must be 0".into()));
            }
            if v < prev {
                return Err(ShardError::Malformed(format!(
                    "index offsets decrease at entry {i}"
                )));
            }
            prev = v;
        }
        if prev != data_len as u64 {
            return Err(ShardError::Malformed(format!(
                "index end {prev} does not match DATA length {data_len}"
            )));
        }
        Ok(ShardReader {
            storage,
            count,
            dataset,
            indx_off,
            data_off,
            data_len,
        })
    }

    /// Records in the shard.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the shard holds no records (never — the spec forbids
    /// empty shards — but the trait-conventional probe exists).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Dataset the records came from ([`DatasetId::Mixed`] when mixed).
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// Whether the backend is a zero-copy memory map.
    pub fn is_mapped(&self) -> bool {
        self.storage.is_mapped()
    }

    /// The raw encoded bytes of record `index` — an O(1) seek through the
    /// index table, no decoding.
    pub fn record_bytes(&self, index: usize) -> Result<&[u8], ShardError> {
        if index >= self.count {
            return Err(ShardError::Malformed(format!(
                "record {index} out of range for {} samples",
                self.count
            )));
        }
        let b = self.storage.bytes();
        let e = self.indx_off + index * 8;
        let start = u64::from_le_bytes(b[e..e + 8].try_into().expect("8 bytes")) as usize;
        let end = u64::from_le_bytes(b[e + 8..e + 16].try_into().expect("8 bytes")) as usize;
        debug_assert!(start <= end && end <= self.data_len, "index validated at open");
        Ok(&b[self.data_off + start..self.data_off + end])
    }

    /// Decode record `index` into a [`Sample`].
    pub fn sample(&self, index: usize) -> Result<Sample, ShardError> {
        decode_record(self.record_bytes(index)?)
    }

    /// Drop page residency accumulated by past reads (mapped backend
    /// only); subsequent reads re-fault from the page cache.
    pub fn advise_dontneed(&self) {
        self.storage.advise_dontneed();
    }

    /// Verify the trailing whole-file CRC-32 — the full-scan check the
    /// writer runs after producing a file. Open-time validation already
    /// covered structure and the index; this covers every data byte.
    pub fn verify(&self) -> Result<(), ShardError> {
        Ok(check_seal(self.storage.bytes())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Dataset;
    use crate::synthetic::{SyntheticLips, SyntheticMaterialsProject, SyntheticOc20};
    use crate::transform::{Compose, Transform};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("matsciml-shard-test-{name}-{}", std::process::id()))
    }

    fn write_shard(samples: &[Sample], path: &Path) -> ShardFileInfo {
        let mut w = ShardWriter::new();
        for s in samples {
            w.push(s);
        }
        w.write(path).unwrap()
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let ds = SyntheticLips::new(4, 9);
        let pipeline = Compose::standard(6.0, Some(8));
        for i in 0..4 {
            // Both point clouds and wired graphs (edges present) roundtrip.
            for s in [ds.sample(i), pipeline.apply(ds.sample(i))] {
                let mut buf = Vec::new();
                encode_record(&s, &mut buf);
                let back = decode_record(&buf).unwrap();
                assert_eq!(
                    serde_json::to_string(&s).unwrap(),
                    serde_json::to_string(&back).unwrap(),
                    "decode(encode(s)) must equal s exactly"
                );
            }
        }
    }

    #[test]
    fn nan_targets_survive_the_record_codec() {
        let ds = SyntheticMaterialsProject::new(1, 0);
        let mut s = ds.sample(0);
        s.targets.band_gap = Some(f32::from_bits(0x7FC0_1234));
        let mut buf = Vec::new();
        encode_record(&s, &mut buf);
        let back = decode_record(&buf).unwrap();
        assert_eq!(back.targets.band_gap.unwrap().to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn shard_file_roundtrips_and_verifies() {
        let ds = SyntheticMaterialsProject::new(17, 3);
        let samples: Vec<Sample> = (0..17).map(|i| ds.sample(i)).collect();
        let path = tmp("roundtrip.mshard");
        let info = write_shard(&samples, &path);
        assert_eq!(info.samples, 17);

        let r = ShardReader::open(&path).unwrap();
        assert_eq!(r.len(), 17);
        assert_eq!(r.dataset(), DatasetId::MaterialsProject);
        r.verify().unwrap();
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(
                serde_json::to_string(s).unwrap(),
                serde_json::to_string(&r.sample(i).unwrap()).unwrap()
            );
        }
        // Out-of-range access is a typed error, not a panic.
        assert!(matches!(r.sample(17), Err(ShardError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffered_and_mapped_backends_agree() {
        let ds = SyntheticOc20::new(6, 5);
        let samples: Vec<Sample> = (0..6).map(|i| ds.sample(i)).collect();
        let path = tmp("backends.mshard");
        write_shard(&samples, &path);
        let auto = ShardReader::open(&path).unwrap();
        let buf = ShardReader::open_buffered(&path).unwrap();
        assert!(!buf.is_mapped());
        for i in 0..6 {
            assert_eq!(auto.record_bytes(i).unwrap(), buf.record_bytes(i).unwrap());
        }
        // The residency hint is always safe to issue.
        auto.advise_dontneed();
        assert_eq!(auto.record_bytes(3).unwrap(), buf.record_bytes(3).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_provenance_shard_reports_mixed() {
        let a = SyntheticMaterialsProject::new(1, 1);
        let b = SyntheticOc20::new(1, 2);
        let path = tmp("mixed.mshard");
        write_shard(&[a.sample(0), b.sample(0)], &path);
        let r = ShardReader::open(&path).unwrap();
        assert_eq!(r.dataset(), DatasetId::Mixed);
        assert_eq!(r.sample(0).unwrap().dataset, DatasetId::MaterialsProject);
        assert_eq!(r.sample(1).unwrap().dataset, DatasetId::Oc20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_lands_in_typed_errors() {
        let ds = SyntheticMaterialsProject::new(3, 7);
        let samples: Vec<Sample> = (0..3).map(|i| ds.sample(i)).collect();
        let path = tmp("corrupt.mshard");
        write_shard(&samples, &path);
        let good = std::fs::read(&path).unwrap();

        // Every case through both backends: the mapped one (where the
        // target has it) and the buffered fallback.
        type Opener = fn(&Path) -> Result<ShardReader, ShardError>;
        let openers: [Opener; 2] = [|p| ShardReader::open(p), |p| ShardReader::open_buffered(p)];
        for open in openers {
            // Foreign file.
            std::fs::write(&path, b"not a shard at all......").unwrap();
            assert!(matches!(open(&path), Err(ShardError::BadMagic)));

            // Future container version.
            let mut v = good.clone();
            v[8] = 9;
            std::fs::write(&path, &v).unwrap();
            assert!(matches!(open(&path), Err(ShardError::UnsupportedVersion(9))));

            // Truncation mid-structure.
            std::fs::write(&path, &good[..good.len() / 2]).unwrap();
            assert!(matches!(
                open(&path),
                Err(ShardError::Truncated { .. }) | Err(ShardError::Malformed(_))
            ));

            // A flipped bit in the index fails the index checksum at open.
            let mut idx = good.clone();
            idx[HEADER_LEN + SECTION_HEADER_LEN + META_LEN + SECTION_HEADER_LEN + 9] ^= 0x40;
            std::fs::write(&path, &idx).unwrap();
            assert!(matches!(
                open(&path),
                Err(ShardError::ChecksumMismatch { what: "index", .. })
            ));

            // A flipped bit in the data passes open (lazy by design) but
            // fails verify().
            let mut data = good.clone();
            let n = data.len();
            data[n - 10] ^= 0x01;
            std::fs::write(&path, &data).unwrap();
            let r = open(&path).unwrap();
            assert!(matches!(r.verify(), Err(ShardError::ChecksumMismatch { what: "file", .. })));
        }

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_mapped_reader_keeps_its_bytes_when_the_path_is_rewritten() {
        let ds = SyntheticMaterialsProject::new(16, 4);
        let pool: Vec<Sample> = (0..16).map(|i| ds.sample(i)).collect();
        let mut encoded = vec![Vec::new(); 16];
        for (s, buf) in pool.iter().zip(&mut encoded) {
            encode_record(s, buf);
        }
        let path = tmp("rewrite.mshard");
        let big: Vec<Sample> = (0..4000).map(|i| pool[i % 16].clone()).collect();
        write_shard(&big, &path);
        let old = ShardReader::open(&path).unwrap();
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(old.is_mapped());
        // Rewrite the path with a one-record shard while `old` maps it.
        // A rewrite in place would truncate the mapped file, and reading
        // its old tail would raise SIGBUS.
        write_shard(&pool[..1], &path);
        for i in 0..4000 {
            assert_eq!(old.record_bytes(i).unwrap(), &encoded[i % 16][..]);
        }
        old.verify().unwrap();
        assert_eq!(ShardReader::open(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn empty_shards_cannot_be_written() {
        let _ = ShardWriter::new().to_bytes();
    }
    /// The byte columns of a hex dump, whitespace-separated pairs.
    fn unhex(dump: &str) -> Vec<u8> {
        dump.split_whitespace().map(|h| u8::from_str_radix(h, 16).unwrap()).collect()
    }

    /// The bytes of a one-record shard: a single atom (species 3 at the
    /// origin), dataset code 0, no edges, no forces.
    fn one_atom_shard(targets: Targets) -> Vec<u8> {
        let graph = MaterialGraph::new(vec![3], vec![Vec3::new(0.0, 0.0, 0.0)]);
        let mut w = ShardWriter::new();
        w.push(&Sample { dataset: DatasetId::MaterialsProject, graph, targets, forces: None });
        w.to_bytes()
    }

    #[test]
    fn writer_reproduces_the_spec_worked_example() {
        // docs/SHARD_FORMAT.md, "Worked example": 140 bytes, file CRC
        // 0x5CDF3C4C.
        let expect = unhex(
            "89 4d 53 48 52 44 0d 0a  01 00 00 00 03 00 00 00
             4d 45 54 41 20 20 20 20  18 00 00 00 00 00 00 00
             01 00 00 00 00 00 00 00  00 00 00 00 01 00 00 00
             03 29 cd 15 00 00 00 00  49 4e 44 58 20 20 20 20
             10 00 00 00 00 00 00 00  00 00 00 00 00 00 00 00
             20 00 00 00 00 00 00 00  44 41 54 41 20 20 20 20
             20 00 00 00 00 00 00 00  00 01 00 00 01 00 00 00
             00 00 00 00 03 00 00 00  00 00 00 00 00 00 00 00
             00 00 00 00 00 00 c0 3f  4c 3c df 5c",
        );
        assert_eq!(expect.len(), 140);
        assert_eq!(one_atom_shard(Targets { band_gap: Some(1.5), ..Default::default() }), expect);
    }

    #[test]
    fn data_off_the_8_byte_grid_is_followed_by_the_crc_unpadded() {
        // Two targets make DATA 36 bytes (≡ 4 mod 8); the file CRC
        // follows it directly, with no padding.
        let expect = unhex(
            "89 4d 53 48 52 44 0d 0a  01 00 00 00 03 00 00 00
             4d 45 54 41 20 20 20 20  18 00 00 00 00 00 00 00
             01 00 00 00 00 00 00 00  00 00 00 00 01 00 00 00
             f9 27 87 91 00 00 00 00  49 4e 44 58 20 20 20 20
             10 00 00 00 00 00 00 00  00 00 00 00 00 00 00 00
             24 00 00 00 00 00 00 00  44 41 54 41 20 20 20 20
             24 00 00 00 00 00 00 00  00 03 00 00 01 00 00 00
             00 00 00 00 03 00 00 00  00 00 00 00 00 00 00 00
             00 00 00 00 00 00 c0 3f  00 00 10 c0 51 d2 63 14",
        );
        assert_eq!(expect.len(), 144);
        let targets = Targets { band_gap: Some(1.5), fermi_energy: Some(-2.25), ..Default::default() };
        assert_eq!(one_atom_shard(targets), expect);
    }
}
