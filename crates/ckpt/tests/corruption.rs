//! Corruption handling for the `matsciml-ckpt/v1` container: every way a
//! file can be damaged must surface as the matching typed [`CkptError`]
//! variant — never a panic, never a silently wrong model.

use matsciml_ckpt::{tags, ByteWriter, CkptError, CkptReader, CkptWriter, MAGIC, VERSION};

/// A small but non-trivial checkpoint byte stream to corrupt: the
/// `PARAMS` payload of `embed.w` (3×4) and `head.b` (one -0.0), written
/// field by field, and an opaque `TRAINST`.
fn sample_file() -> Vec<u8> {
    let mut params = ByteWriter::new();
    params.put_u64(2);
    params.put_str("embed.w");
    params.put_u32(2);
    params.put_u64(3);
    params.put_u64(4);
    for i in 0..12 {
        params.put_f32(i as f32 * 0.5 - 3.0);
    }
    params.put_str("head.b");
    params.put_u32(1);
    params.put_u64(1);
    params.put_f32(-0.0);
    let mut w = CkptWriter::new();
    w.section(tags::PARAMS, params.into_bytes());
    w.section(tags::TRAIN_STATE, vec![0xAB; 20]);
    w.to_bytes()
}

#[test]
fn truncated_file_is_a_typed_error() {
    let full = sample_file();
    // Cut mid-magic, mid-header, at or inside the header's checksum
    // room, mid-section-header, and mid-payload: all must parse-fail as
    // Truncated, not panic or misreport.
    for cut in [3, 10, 16, 18, 20, full.len() / 2] {
        match CkptReader::from_bytes(&full[..cut]) {
            Err(CkptError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}", other = other.err()),
        }
    }
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut bytes = sample_file();
    bytes[0] = b'{'; // looks like JSON now
    assert!(matches!(CkptReader::from_bytes(&bytes), Err(CkptError::BadMagic)));
    // A totally foreign file too.
    assert!(matches!(
        CkptReader::from_bytes(b"PK\x03\x04 definitely a zip archive"),
        Err(CkptError::BadMagic)
    ));
}

#[test]
fn future_version_is_refused_with_the_version_number() {
    let mut bytes = sample_file();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match CkptReader::from_bytes(&bytes) {
        Err(CkptError::UnsupportedVersion(v)) => assert_eq!(v, 99),
        other => panic!("expected UnsupportedVersion, got {other:?}", other = other.err()),
    }
}

#[test]
fn every_flipped_payload_byte_fails_the_checksum() {
    let full = sample_file();
    // Flip one byte at a time across the payload region (past the fixed
    // header, before the stored CRC). The structural parse still
    // succeeds for in-payload flips, so the checksum must catch them.
    let params_start = 16 + 16; // file header + first section header
    for pos in (params_start..full.len() - 4).step_by(7) {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x40;
        match CkptReader::from_bytes(&bytes) {
            Err(CkptError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed)
            }
            // A flip inside a section *length* field derails the
            // structural parse first — also a loud, typed failure.
            Err(CkptError::Truncated { .. }) | Err(CkptError::Malformed(_)) => {}
            other => panic!(
                "flip at {pos}: expected a typed error, got {other:?}",
                other = other.err()
            ),
        }
    }
}

#[test]
fn flipped_checksum_bytes_also_fail() {
    let full = sample_file();
    let mut bytes = full.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        CkptReader::from_bytes(&bytes),
        Err(CkptError::ChecksumMismatch { .. })
    ));
}

#[test]
fn intact_file_still_parses() {
    let r = CkptReader::from_bytes(&sample_file()).unwrap();
    assert_eq!(r.version(), VERSION);
    assert!(r.section(tags::PARAMS).is_some());
    assert_eq!(r.tags(), vec![tags::PARAMS, tags::TRAIN_STATE]);
    // Sanity: the magic constant is what the spec says it is.
    assert_eq!(MAGIC, [0x89, b'M', b'C', b'K', b'P', b'T', 0x0D, 0x0A]);
}
