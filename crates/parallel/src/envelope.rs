//! Sealed halo messages: the envelope every slab travels in, and the typed
//! errors a receiver reports instead of panicking.
//!
//! The paper's production runs are multi-day MPI campaigns where message
//! corruption and peer loss are operational facts, not exceptional ones.
//! Every halo payload is therefore wrapped in a [`SealedSlab`] carrying
//! the exchange epoch, a per-link sequence number, and a CRC32 over the
//! payload bytes (the same IEEE checksum `apr-guard` uses for checkpoint
//! sections, so a slab can be cross-checked against a checkpoint with the
//! same tooling). Receivers validate with [`SealedSlab::verify`] and get a
//! [`HaloError`] value — Timeout / Corrupt / Reordered / PeerDead — that
//! the exchange protocol turns into a NACK-driven resend, and only after
//! the resend budget is exhausted into a frozen ghost plus a
//! `HealthReport` issue. No validation path panics.

use apr_guard::crc32;
use std::fmt;

/// A directed communication link, named for error messages: `src → dst`
/// with a small tag distinguishing parallel links between the same pair
/// (low/high plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Link discriminator (plane side).
    pub tag: u8,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}#{}", self.src, self.dst, self.tag)
    }
}

/// Everything that can go wrong receiving a halo slab. Values, never
/// panics: the exchange layer heals what it can (resend) and degrades
/// gracefully (freeze + report) for the rest.
#[derive(Debug, Clone, PartialEq)]
pub enum HaloError {
    /// No message arrived within the receive deadline.
    Timeout {
        /// Link that went silent.
        link: LinkId,
    },
    /// Payload failed its CRC32 integrity check.
    Corrupt {
        /// Link the damaged slab arrived on.
        link: LinkId,
        /// Checksum sealed at send time.
        expected: u32,
        /// Checksum of the received payload.
        actual: u32,
    },
    /// A slab arrived with the wrong exchange epoch or a stale sequence
    /// number (duplicate or out-of-order delivery).
    Reordered {
        /// Link the stale slab arrived on.
        link: LinkId,
        /// Epoch the receiver is exchanging.
        expected_epoch: u64,
        /// Epoch stamped on the message.
        got_epoch: u64,
    },
    /// Payload length does not match the face geometry.
    SizeMismatch {
        /// Link the malformed slab arrived on.
        link: LinkId,
        /// Values the face requires.
        expected: usize,
        /// Values received.
        got: usize,
    },
    /// The sending rank is dead or stalled (the supervisor marked it
    /// down); no resend can heal this.
    PeerDead {
        /// The dead rank.
        rank: usize,
    },
}

impl HaloError {
    /// Short machine-readable name of the verdict, carried by
    /// `HealthIssue::HaloDegraded` when a ghost freezes.
    pub fn reason(&self) -> &'static str {
        match self {
            HaloError::Timeout { .. } => "timeout",
            HaloError::Corrupt { .. } => "corrupt",
            HaloError::Reordered { .. } => "reordered",
            HaloError::SizeMismatch { .. } => "size_mismatch",
            HaloError::PeerDead { .. } => "peer_dead",
        }
    }
}

impl fmt::Display for HaloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaloError::Timeout { link } => write!(f, "halo link {link}: receive timed out"),
            HaloError::Corrupt {
                link,
                expected,
                actual,
            } => write!(
                f,
                "halo link {link}: payload corrupt (crc {actual:#010x} != sealed {expected:#010x})"
            ),
            HaloError::Reordered {
                link,
                expected_epoch,
                got_epoch,
            } => write!(
                f,
                "halo link {link}: epoch {got_epoch} arrived during exchange {expected_epoch}"
            ),
            HaloError::SizeMismatch {
                link,
                expected,
                got,
            } => write!(
                f,
                "halo link {link}: payload holds {got} values, face needs {expected}"
            ),
            HaloError::PeerDead { rank } => write!(f, "halo peer rank {rank} is dead"),
        }
    }
}

impl std::error::Error for HaloError {}

/// View an `f64` payload as bytes for checksumming (bit patterns, so NaN
/// payloads checksum deterministically too).
pub fn payload_bytes(payload: &[f64]) -> &[u8] {
    // SAFETY: f64 has no invalid bit patterns and &[f64] is always
    // aligned/sized for a byte view of the same memory.
    unsafe { std::slice::from_raw_parts(payload.as_ptr().cast::<u8>(), payload.len() * 8) }
}

/// One halo slab sealed for transport.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedSlab {
    /// Link the slab travels on.
    pub link: LinkId,
    /// Exchange round the slab belongs to.
    pub epoch: u64,
    /// Per-link sequence number (resends reuse the original's).
    pub seq: u64,
    /// CRC32 over the payload bytes, computed at seal time.
    pub crc: u32,
    /// Correlation: serve session the sender was working for at seal time
    /// (0 = unscoped). Ties a halo message on the wire back to the session
    /// and step that produced it.
    pub session: u64,
    /// Correlation: simulation step the sender was in at seal time
    /// (0 = unscoped).
    pub step: u64,
    /// The face values.
    pub payload: Vec<f64>,
}

impl SealedSlab {
    /// Seal a payload: stamp epoch/sequence and checksum the bytes. The
    /// correlation ids (session, step) are captured automatically from
    /// the sealing thread's telemetry scopes, so the many existing call
    /// sites stay unchanged; the sending rank is already in `link.src`.
    pub fn seal(link: LinkId, epoch: u64, seq: u64, payload: Vec<f64>) -> Self {
        let crc = crc32(payload_bytes(&payload));
        Self {
            link,
            epoch,
            seq,
            crc,
            session: apr_telemetry::current_session(),
            step: apr_telemetry::current_step(),
            payload,
        }
    }

    /// Validate a received slab against the receiver's expectations.
    /// Checks epoch, then size, then the payload CRC.
    pub fn verify(&self, expected_epoch: u64, expected_len: usize) -> Result<(), HaloError> {
        if self.epoch != expected_epoch {
            return Err(HaloError::Reordered {
                link: self.link,
                expected_epoch,
                got_epoch: self.epoch,
            });
        }
        if self.payload.len() != expected_len {
            return Err(HaloError::SizeMismatch {
                link: self.link,
                expected: expected_len,
                got: self.payload.len(),
            });
        }
        let actual = crc32(payload_bytes(&self.payload));
        if actual != self.crc {
            return Err(HaloError::Corrupt {
                link: self.link,
                expected: self.crc,
                actual,
            });
        }
        Ok(())
    }

    /// Flip one payload bit *without* resealing — models in-flight
    /// corruption for the chaos harness (`MsgFault::Corrupt`).
    pub fn corrupt_in_place(&mut self) {
        if self.payload.is_empty() {
            // Damage the seal instead so the corruption is still visible.
            self.crc ^= 0x8000_0001;
            return;
        }
        let idx = self.payload.len() / 2;
        let bits = self.payload[idx].to_bits() ^ (1 << 17);
        self.payload[idx] = f64::from_bits(bits);
    }

    /// Payload size in transported bytes (diagnostics).
    pub fn byte_len(&self) -> usize {
        self.payload.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkId {
        LinkId {
            src: 0,
            dst: 1,
            tag: 2,
        }
    }

    #[test]
    fn seal_verify_round_trip() {
        let slab = SealedSlab::seal(link(), 7, 7, vec![1.0, -2.5, f64::NAN]);
        assert!(slab.verify(7, 3).is_ok(), "NaN payloads must seal fine");
    }

    #[test]
    fn seal_captures_correlation_scopes() {
        let unscoped = SealedSlab::seal(link(), 1, 1, vec![1.0]);
        assert_eq!((unscoped.session, unscoped.step), (0, 0));
        let _session = apr_telemetry::session_scope(9);
        let _step = apr_telemetry::step_scope(42);
        let scoped = SealedSlab::seal(link(), 1, 2, vec![1.0]);
        assert_eq!((scoped.session, scoped.step), (9, 42));
        assert!(
            scoped.verify(1, 1).is_ok(),
            "correlation must not break the seal"
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut slab = SealedSlab::seal(link(), 1, 1, vec![0.25; 16]);
        slab.corrupt_in_place();
        assert!(matches!(slab.verify(1, 16), Err(HaloError::Corrupt { .. })));
    }

    #[test]
    fn epoch_and_size_checks_precede_crc() {
        let slab = SealedSlab::seal(link(), 3, 3, vec![1.0; 4]);
        assert!(matches!(
            slab.verify(4, 4),
            Err(HaloError::Reordered {
                expected_epoch: 4,
                got_epoch: 3,
                ..
            })
        ));
        assert!(matches!(
            slab.verify(3, 5),
            Err(HaloError::SizeMismatch {
                expected: 5,
                got: 4,
                ..
            })
        ));
    }

    #[test]
    fn empty_payload_corruption_damages_the_seal() {
        let mut slab = SealedSlab::seal(link(), 0, 0, Vec::new());
        slab.corrupt_in_place();
        assert!(matches!(slab.verify(0, 0), Err(HaloError::Corrupt { .. })));
    }

    #[test]
    fn errors_render_with_link_identity() {
        let e = HaloError::Timeout { link: link() };
        assert!(e.to_string().contains("0→1#2"), "{e}");
    }
}
