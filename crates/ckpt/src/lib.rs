//! `matsciml-ckpt` — the container layer under both on-disk artifacts,
//! the `.mckpt` checkpoint and the `.mshard` corpus shard: tagged
//! sections behind an 8-byte magic and a version, sealed by a trailing
//! CRC-32 over the whole file.
//!
//! It owns that layer once — the framing ([`put_header`],
//! [`put_section`], [`seal`], [`Sections`], [`check_seal`]), the typed
//! [`CkptError`], the table-driven [`crc32`], the [`ByteWriter`] /
//! [`ByteReader`] payload primitives — and [`write_durable`], the one
//! writer every artifact goes through. It depends on no other
//! `matsciml-*` crate: the typed codecs live with their callers
//! (`ParamSet`/`AdamWState` in `matsciml-train`, sample records in
//! `matsciml-datasets`). `docs/CHECKPOINT_FORMAT.md` and
//! `docs/SHARD_FORMAT.md` are the normative specs; this crate is one
//! implementation of them.
//!
//! Design constraints, in priority order:
//!
//! 1. **Bit-exactness.** Every f32 is stored as its IEEE-754 bit pattern,
//!    so save → load → resume reproduces the uninterrupted trajectory bit
//!    for bit (the train crate's `restart_bitwise` test).
//! 2. **Loud corruption.** Truncation, a foreign file, a future version,
//!    and a flipped byte each surface as a distinct [`CkptError`]
//!    variant — never a panic, never a silently wrong model.
//! 3. **Durable replacement.** A crash at any instant leaves the old
//!    artifact or the new one under its final name, never a torn one.
//! 4. **Forward compatibility.** Checkpoint readers skip sections whose
//!    tag they do not recognize, so a v1 reader opens files written by
//!    later toolkits that append new sections.

#![warn(missing_docs)]

mod durable;
mod format;

pub use durable::write_durable;
pub use format::{
    check_seal, crc32, put_header, put_section, seal, ByteReader, ByteWriter, CkptError,
    CkptReader, CkptWriter, Sections, HEADER_LEN, MAGIC, SECTION_HEADER_LEN, VERSION,
};

/// Section tags defined by `matsciml-ckpt/v1`. Tags are 1–8 ASCII bytes,
/// space-padded on disk; unknown tags must be skipped by readers.
pub mod tags {
    /// Parameter tensors: names, shapes, and f32 bit patterns.
    pub const PARAMS: &str = "PARAMS";
    /// AdamW optimizer state: hyperparameters, step count, moments.
    pub const OPT_ADAMW: &str = "OPTADAMW";
    /// Model architecture as UTF-8 JSON (encoder + heads, no weights).
    pub const MODEL_JSON: &str = "MODELJSN";
    /// Training configuration as UTF-8 JSON.
    pub const TRAIN_CONFIG: &str = "TRAINCFG";
    /// Trainer progress: completed steps, best metric, early-stop state.
    pub const TRAIN_STATE: &str = "TRAINST";
    /// Quantized parameter tensors (f16/bf16 packed bits plus a
    /// per-tensor max-abs-error summary) — the reduced-precision
    /// inference artifact. Pre-PRMH readers skip it via the v1
    /// unknown-tag rule.
    pub const PARAMS_HALF: &str = "PRMH";
}
