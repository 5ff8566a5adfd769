//! Versioned, CRC-protected checkpoint container.
//!
//! A checkpoint is a set of named binary sections behind a magic/version
//! header. Each section carries its own CRC32 so corruption is localized
//! to a section name in the error message, and writes to disk go through a
//! temp-file + rename so a crash mid-write can never destroy the previous
//! good checkpoint.
//!
//! Layout (all little-endian):
//!
//! ```text
//! "APRGUARD"  magic, 8 bytes
//! version     u32
//! count       u32
//! count × [ name_len u8 | name | payload_len u64 | payload | crc32 u32 ]
//! crc32       u32 over every preceding byte (version >= 3)
//! ```
//!
//! Per-section CRCs localize corruption to a section name; the trailing
//! container CRC (new in v3) additionally covers the header and section
//! directory, so *any* single-bit flip in a checkpoint — including in a
//! section name, the count, or the version field — surfaces as a typed
//! error. Buddy checkpoints travel between ranks over the same fabric as
//! halo messages, so this is load-bearing for distributed recovery, not
//! just for disk rot.

use crate::codec::{crc32, ByteReader, ByteWriter};
use crate::error::GuardError;
use std::path::Path;

const MAGIC: &[u8; 8] = b"APRGUARD";

/// Current container format version. v3 added the trailing directory CRC
/// (header, names, lengths, and section-CRC fields — payloads are covered
/// by their own per-section CRCs); v2 blobs (no trailing CRC) still parse.
pub const FORMAT_VERSION: u32 = 3;

/// Builder for a multi-section checkpoint blob.
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointWriter {
    /// New empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a named section. Names must be unique and at most 255 bytes.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        debug_assert!(name.len() <= u8::MAX as usize, "section name too long");
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section {name}"
        );
        self.sections.push((name.to_string(), payload));
        self
    }

    /// Serialize the container to bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let payload_total: usize = self.sections.iter().map(|(n, p)| n.len() + p.len()).sum();
        w.reserve(payload_total + 64 * self.sections.len() + 32);
        w.bytes(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(self.sections.len() as u32);
        let mut payload_spans = Vec::with_capacity(self.sections.len());
        for (name, payload) in &self.sections {
            w.u8(name.len() as u8);
            w.bytes(name.as_bytes());
            w.u64(payload.len() as u64);
            payload_spans.push((w.len(), w.len() + payload.len()));
            w.bytes(payload);
            w.u32(crc32(payload));
        }
        let mut bytes = w.into_bytes();
        let crc = directory_crc(&bytes, &payload_spans);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }
}

/// CRC over every container byte *outside* section payloads: magic,
/// version, count, names, lengths, and each section's CRC field. Payload
/// bytes are already covered by their per-section CRCs, so checksumming
/// them again in the trailer would double the CRC cost of multi-megabyte
/// checkpoints for no added coverage — every byte of the container is
/// protected by exactly one of the two layers.
fn directory_crc(bytes: &[u8], payload_spans: &[(usize, usize)]) -> u32 {
    let mut crc = 0u32;
    let mut pos = 0usize;
    for &(start, end) in payload_spans {
        crc = crate::codec::crc32_update(crc, &bytes[pos..start]);
        pos = end;
    }
    crate::codec::crc32_update(crc, &bytes[pos..])
}

/// Parsed checkpoint with CRC-verified sections.
#[derive(Debug)]
pub struct CheckpointReader<'a> {
    version: u32,
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> CheckpointReader<'a> {
    /// Parse and verify a checkpoint blob. Every section's CRC is checked
    /// up front; payload corruption yields [`GuardError::Crc`] naming the
    /// section, and (v3+) header/directory corruption is caught by the
    /// trailing directory CRC (reported with section `"container"`).
    pub fn parse(data: &'a [u8]) -> Result<Self, GuardError> {
        let mut r = ByteReader::new(data);
        let magic = r.bytes(8)?;
        if magic != MAGIC {
            return Err(GuardError::Format("bad magic header".into()));
        }
        let version = r.u32()?;
        if version > FORMAT_VERSION {
            return Err(GuardError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        // v3+ blobs end with a u32 CRC over everything before it; bound
        // the section region so payload parsing cannot eat into it.
        let body_end = if version >= 3 {
            if data.len() < 4 {
                return Err(GuardError::Format(
                    "blob too short for container CRC".into(),
                ));
            }
            data.len() - 4
        } else {
            data.len()
        };
        let mut r = ByteReader::new(&data[..body_end]);
        r.bytes(8)?; // magic, already validated
        r.u32()?; // version, already validated
        let count = r.u32()? as usize;
        // Bound the count by what the body can hold before allocating for
        // it: a section is at least a name-length byte, a u64 payload
        // length and a u32 CRC.
        const MIN_SECTION_BYTES: usize = 1 + 8 + 4;
        if count > r.remaining() / MIN_SECTION_BYTES {
            return Err(GuardError::Format(format!(
                "section count {count} exceeds what {} remaining bytes can hold",
                r.remaining()
            )));
        }
        let mut sections = Vec::with_capacity(count);
        let mut payload_spans = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = r.u8()? as usize;
            let name = std::str::from_utf8(r.bytes(name_len)?)
                .map_err(|e| GuardError::Format(format!("section name not UTF-8: {e}")))?
                .to_string();
            let payload_len = r.usize()?;
            let start = body_end - r.remaining();
            let payload = r.bytes(payload_len)?;
            payload_spans.push((start, start + payload_len));
            let expected = r.u32()?;
            let actual = crc32(payload);
            if actual != expected {
                return Err(GuardError::Crc {
                    section: name,
                    expected,
                    actual,
                });
            }
            sections.push((name, payload));
        }
        if r.remaining() != 0 {
            return Err(GuardError::Format(format!(
                "{} trailing bytes after final section",
                r.remaining()
            )));
        }
        if version >= 3 {
            let expected = u32::from_le_bytes(data[body_end..].try_into().unwrap());
            let actual = directory_crc(&data[..body_end], &payload_spans);
            if actual != expected {
                return Err(GuardError::Crc {
                    section: "container".into(),
                    expected,
                    actual,
                });
            }
        }
        Ok(Self { version, sections })
    }

    /// Format version the blob was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Payload of an optional section.
    pub fn get(&self, name: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, p)| p)
    }

    /// Payload of a required section, as a reader.
    pub fn require(&self, name: &str) -> Result<ByteReader<'a>, GuardError> {
        self.get(name)
            .map(ByteReader::new)
            .ok_or_else(|| GuardError::MissingSection(name.to_string()))
    }
}

/// Atomically write `bytes` to `path`: write to `<path>.tmp` in the same
/// directory, fsync, then rename over the target. A crash mid-write leaves
/// the previous checkpoint untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), GuardError> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read a checkpoint file fully into memory.
pub fn read_file(path: &Path) -> Result<Vec<u8>, GuardError> {
    Ok(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = CheckpointWriter::new();
        w.section("meta", vec![1, 2, 3]);
        w.section("fields", (0..64).collect());
        w.finish()
    }

    #[test]
    fn sections_round_trip() {
        let blob = sample();
        let r = CheckpointReader::parse(&blob).unwrap();
        assert_eq!(r.version(), FORMAT_VERSION);
        assert_eq!(r.section_names().collect::<Vec<_>>(), ["meta", "fields"]);
        assert_eq!(r.get("meta").unwrap(), &[1, 2, 3]);
        assert_eq!(r.get("fields").unwrap().len(), 64);
        assert!(r.get("nope").is_none());
        assert!(matches!(
            r.require("nope"),
            Err(GuardError::MissingSection(n)) if n == "nope"
        ));
    }

    #[test]
    fn bit_flip_is_reported_as_crc_error_with_section_name() {
        let mut blob = sample();
        // Flip a bit inside the "fields" payload (tail of the blob, before
        // its trailing CRC).
        let idx = blob.len() - 10;
        blob[idx] ^= 0x40;
        match CheckpointReader::parse(&blob) {
            Err(GuardError::Crc {
                section,
                expected,
                actual,
            }) => {
                assert_eq!(section, "fields");
                assert_ne!(expected, actual);
            }
            other => panic!("expected Crc error, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut blob = sample();
        // Version field sits right after the 8-byte magic.
        blob[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            CheckpointReader::parse(&blob),
            Err(GuardError::Version { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn truncated_blob_is_a_format_error() {
        let blob = sample();
        let cut = &blob[..blob.len() - 7];
        assert!(matches!(
            CheckpointReader::parse(cut),
            Err(GuardError::Format(_))
        ));
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join("apr-guard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_atomic(&path, &[9, 9, 9]).unwrap();
        write_atomic(&path, &sample()).unwrap();
        let back = read_file(&path).unwrap();
        assert!(CheckpointReader::parse(&back).is_ok());
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
