//! Little-endian binary codec and CRC32 used by the checkpoint container.
//!
//! Deliberately dependency-free: the build environment is offline, and the
//! paper's own restart files are plain binary dumps, so a small hand-rolled
//! writer/reader pair is both sufficient and auditable.

use crate::error::GuardError;
use apr_mesh::Vec3;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
///
/// Table-driven (slicing-by-16), computed lazily once. This is the same
/// checksum gzip/PNG use, so checkpoints can be cross-checked with
/// standard tools. The 16-way sliced kernel processes 16 input bytes per
/// iteration — the sealed halo-message path checksums every exchanged
/// slab per step and buddy checkpoints checksum megabytes per rank, so
/// this routine must run at memory-bandwidth-ish speed, not one table
/// lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Minimal splitmix64 step — the deterministic generator behind
/// `apr-parallel`'s seeded chaos schedules. Kept
/// dependency-free on purpose: a chaos run must be reproducible from the
/// single logged seed on any build.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Continue a CRC32 from a previous value (for streaming over sections).
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = !crc;
    let mut chunks = data.chunks_exact(16);
    for d in &mut chunks {
        let lo = u32::from_le_bytes([d[0], d[1], d[2], d[3]]) ^ c;
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][((lo >> 24) & 0xFF) as usize]
            ^ t[11][d[4] as usize]
            ^ t[10][d[5] as usize]
            ^ t[9][d[6] as usize]
            ^ t[8][d[7] as usize]
            ^ t[7][d[8] as usize]
            ^ t[6][d[9] as usize]
            ^ t[5][d[10] as usize]
            ^ t[4][d[11] as usize]
            ^ t[3][d[12] as usize]
            ^ t[2][d[13] as usize]
            ^ t[1][d[14] as usize]
            ^ t[0][d[15] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Pre-size the buffer for `additional` more bytes — worthwhile before
    /// multi-megabyte lattice dumps, where doubling reallocs would copy
    /// the payload an extra time.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as u64 (portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a little-endian f64 (bit pattern, exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a slice of f64s, length-prefixed.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        self.f64_run(vs);
    }

    /// Append f64s with no length prefix: one run of a vector whose
    /// prefix was written ahead of its runs (a length-prefixed vector
    /// written in pieces reads back with [`ByteReader::f64s`]).
    pub fn f64_run(&mut self, vs: &[f64]) {
        #[cfg(target_endian = "little")]
        {
            // The wire format is little-endian, so on LE hosts the
            // in-memory layout already matches — one bulk copy instead of
            // per-element encoding. This is the hot path for lattice
            // checkpoints (megabytes of distributions per rank).
            let bytes = unsafe {
                std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
            };
            self.buf.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for &v in vs {
            self.f64(v);
        }
    }

    /// Append a [`Vec3`] as three f64s.
    pub fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    /// Append a slice of [`Vec3`]s, length-prefixed.
    pub fn vec3s(&mut self, vs: &[Vec3]) {
        self.usize(vs.len());
        for &v in vs {
            self.vec3(v);
        }
    }

    /// Append a UTF-8 string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Decode little-endian f64 wire bytes into `out` (`raw.len() == 8 ·
/// out.len()`).
pub fn decode_f64s(raw: &[u8], out: &mut [f64]) {
    assert_eq!(
        raw.len(),
        out.len() * 8,
        "f64 byte run does not fit its output"
    );
    #[cfg(target_endian = "little")]
    // SAFETY: lengths checked above; on LE hosts the wire bytes are the
    // in-memory layout, so one copy replaces per-element decoding.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr().cast::<u8>(), raw.len());
    }
    #[cfg(not(target_endian = "little"))]
    for (v, c) in out.iter_mut().zip(raw.chunks_exact(8)) {
        *v = f64::from_le_bytes(c.try_into().unwrap());
    }
}

/// Cursor over checkpoint bytes; every read is bounds-checked and returns
/// a typed [`GuardError::Format`] on truncation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// New reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], GuardError> {
        if self.remaining() < n {
            return Err(GuardError::Format(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, GuardError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, GuardError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, GuardError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a usize stored as u64.
    pub fn usize(&mut self) -> Result<usize, GuardError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| GuardError::Format(format!("length {v} exceeds this platform's usize")))
    }

    /// Read a bool stored as one byte.
    pub fn bool(&mut self) -> Result<bool, GuardError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(GuardError::Format(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, GuardError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed f64 vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, GuardError> {
        let raw = self.f64_bytes()?;
        let mut out = vec![0.0f64; raw.len() / 8];
        decode_f64s(raw, &mut out);
        Ok(out)
    }

    /// Borrow a length-prefixed f64 vector as its wire bytes, without
    /// decoding or allocating: the length is validated against the bytes
    /// that remain. Decode pieces of it with [`decode_f64s`].
    pub fn f64_bytes(&mut self) -> Result<&'a [u8], GuardError> {
        let n = self.usize()?;
        self.checked_len(n, 8)?;
        self.bytes(n * 8)
    }

    /// Read a [`Vec3`].
    pub fn vec3(&mut self) -> Result<Vec3, GuardError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    /// Read a length-prefixed [`Vec3`] vector.
    pub fn vec3s(&mut self) -> Result<Vec<Vec3>, GuardError> {
        let n = self.usize()?;
        self.checked_len(n, 24)?;
        (0..n).map(|_| self.vec3()).collect()
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, GuardError> {
        let n = self.usize()?;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| GuardError::Format(format!("invalid UTF-8 string: {e}")))
    }

    /// Reject length prefixes that overrun the buffer before allocating.
    fn checked_len(&self, n: usize, elem: usize) -> Result<(), GuardError> {
        let need = n.checked_mul(elem).ok_or_else(|| {
            GuardError::Format(format!("length {n} overflows element size {elem}"))
        })?;
        if need > self.remaining() {
            return Err(GuardError::Format(format!(
                "length prefix {n} needs {need} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming over two chunks equals one pass.
        let one = crc32(b"hello world");
        let two = crc32_update(crc32(b"hello "), b"world");
        assert_eq!(one, two);
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference_at_every_alignment() {
        // Independent one-bit-at-a-time reference.
        fn reference(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        // Streaming split at an odd offset equals one pass.
        assert_eq!(crc32_update(crc32(&data[..13]), &data[13..]), crc32(&data));
    }

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.f64(-0.1);
        w.f64s(&[1.5, f64::NAN, 3.0]);
        w.vec3(Vec3::new(1.0, 2.0, 3.0));
        w.vec3s(&[Vec3::ZERO, Vec3::splat(9.0)]);
        w.str("τ=0.8");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.1);
        let fs = r.f64s().unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_nan(), "NaN must survive bit-exactly");
        assert_eq!(r.vec3().unwrap(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(r.vec3s().unwrap(), vec![Vec3::ZERO, Vec3::splat(9.0)]);
        assert_eq!(r.str().unwrap(), "τ=0.8");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.u64(3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        // Claims 3 f64s but has none.
        assert!(matches!(r.f64s(), Err(GuardError::Format(_))));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.vec3s(), Err(GuardError::Format(_))));
    }
}
