//! Unified runtime configuration: one typed front door for everything
//! that used to be scattered `std::env` reads.
//!
//! [`RuntimeConfig`] bundles the two knobs that shape a run — kernel
//! backend and worker thread count — and [`RuntimeConfig::from_env`] is
//! the *single* parser for `APR_KERNEL` / `APR_THREADS`, returning a typed
//! [`RuntimeConfigError`] instead of panicking on a typo.
//! [`RuntimeConfig::install`] applies the parsed config process-wide: it
//! swaps the global worker pool and records the kernel default that
//! `apr-lattice` consults when a solver has no explicit override.
//!
//! Lattice-level consumers read the installed state through
//! [`kernel_override`]; when nothing was installed the selector falls back
//! to a lenient env read so plain `APR_KERNEL=reference cargo test` keeps
//! working without any setup call.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::KernelKind;

/// A malformed runtime environment variable. Each variant carries the
/// rejected value verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeConfigError {
    /// `APR_KERNEL` was none of `auto`/`reference`/`fused`.
    Kernel(String),
    /// `APR_THREADS` was not a non-negative integer.
    Threads(String),
}

impl std::fmt::Display for RuntimeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeConfigError::Kernel(v) => {
                write!(f, "APR_KERNEL={v:?}: expected auto, reference, or fused")
            }
            RuntimeConfigError::Threads(v) => write!(
                f,
                "APR_THREADS={v:?}: expected a non-negative integer (0 = all cores)"
            ),
        }
    }
}

impl std::error::Error for RuntimeConfigError {}

/// The typed runtime surface: every knob the engine reads at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeConfig {
    /// Kernel backend to force, or `None` for the default
    /// ([`KernelKind::FusedSwap`]).
    pub kernel: Option<KernelKind>,
    /// Worker lanes (`0` = one per available core).
    pub threads: usize,
}

impl RuntimeConfig {
    /// Parse the full runtime environment (`APR_KERNEL`, `APR_THREADS`).
    /// Unset variables take their defaults; a set-but-malformed variable
    /// is a typed error, never a panic and never silently ignored.
    pub fn from_env() -> Result<Self, RuntimeConfigError> {
        let get = |k: &str| std::env::var(k).ok();
        Self::parse(
            get("APR_KERNEL").as_deref(),
            get("APR_THREADS").as_deref(),
            None,
            None,
        )
    }

    /// The pure parser behind [`RuntimeConfig::from_env`], separated so
    /// tests can exercise it without mutating process env. `None` means
    /// the variable was unset. The third and fourth parameters are
    /// ignored: they stay only because `benchmark/` pins this signature.
    pub fn parse(
        kernel: Option<&str>,
        threads: Option<&str>,
        _chunking: Option<&str>,
        _probe: Option<&str>,
    ) -> Result<Self, RuntimeConfigError> {
        let mut cfg = Self::default();
        if let Some(v) = kernel {
            cfg.kernel = parse_kernel(v).map_err(RuntimeConfigError::Kernel)?;
        }
        if let Some(v) = threads {
            let t = v.trim();
            cfg.threads = if t.is_empty() {
                0
            } else {
                t.parse::<usize>()
                    .map_err(|_| RuntimeConfigError::Threads(v.to_string()))?
            };
        }
        Ok(cfg)
    }

    /// Force a specific kernel backend (builder style).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Set the worker lane count (builder style, `0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Does nothing: it stays only because `benchmark/` pins this call.
    pub fn with_probe(self, _: bool) -> Self {
        self
    }

    /// Apply this config process-wide: swap the global worker pool to
    /// [`RuntimeConfig::threads`] lanes and record the kernel default
    /// consulted by lattices without an explicit override.
    /// Later installs fully replace earlier ones.
    pub fn install(&self) {
        apr_exec::set_threads(self.threads);
        KERNEL_OVERRIDE.store(encode_kernel(self.kernel), Ordering::Release);
    }
}

fn parse_kernel(v: &str) -> Result<Option<KernelKind>, String> {
    match v.trim() {
        "" | "auto" => Ok(None),
        "reference" => Ok(Some(KernelKind::Reference)),
        "fused" => Ok(Some(KernelKind::FusedSwap)),
        _ => Err(v.to_string()),
    }
}

// Installed process default. Encoding: 0 = not installed (fall back to a
// lenient env read), otherwise value + 1 in the type's own order.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn encode_kernel(k: Option<KernelKind>) -> u8 {
    match k {
        None => 1, // installed-as-auto still overrides the env
        Some(KernelKind::Reference) => 2,
        Some(KernelKind::FusedSwap) => 3,
    }
}

/// The kernel forced by the installed [`RuntimeConfig`], if any.
/// `None` either means "nothing installed" or "installed as auto" — both
/// leave the decision to the selector ([`kernel_pinned`] tells them
/// apart).
pub fn kernel_override() -> Option<KernelKind> {
    match KERNEL_OVERRIDE.load(Ordering::Acquire) {
        2 => Some(KernelKind::Reference),
        3 => Some(KernelKind::FusedSwap),
        _ => None,
    }
}

/// Whether an installed [`RuntimeConfig`] pinned the kernel choice —
/// including pinning it to `auto`. When true the selector must not read
/// `APR_KERNEL` again.
pub fn kernel_pinned() -> bool {
    KERNEL_OVERRIDE.load(Ordering::Acquire) != 0
}

/// Non-panicking `APR_KERNEL` read for the selector: `Ok(None)` when
/// unset or `auto`, a typed error on garbage.
pub fn env_kernel() -> Result<Option<KernelKind>, RuntimeConfigError> {
    match std::env::var("APR_KERNEL") {
        Ok(v) => parse_kernel(&v).map_err(RuntimeConfigError::Kernel),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_when_all_unset() {
        let cfg = RuntimeConfig::parse(None, None, None, None).unwrap();
        assert_eq!(cfg, RuntimeConfig::default());
        assert_eq!(cfg.kernel, None);
        assert_eq!(cfg.threads, 0);
    }

    #[test]
    fn parse_accepts_every_kernel_name() {
        for (name, want) in [
            ("auto", None),
            ("", None),
            ("reference", Some(KernelKind::Reference)),
            ("fused", Some(KernelKind::FusedSwap)),
        ] {
            let cfg = RuntimeConfig::parse(Some(name), None, None, None).unwrap();
            assert_eq!(cfg.kernel, want, "APR_KERNEL={name}");
        }
        // Round trip through the canonical names.
        for kind in [KernelKind::Reference, KernelKind::FusedSwap] {
            let cfg = RuntimeConfig::parse(Some(kind.as_str()), None, None, None).unwrap();
            assert_eq!(cfg.kernel, Some(kind));
        }
    }

    #[test]
    fn parse_rejects_garbage_with_typed_errors() {
        for name in ["fast", "simd"] {
            assert_eq!(
                RuntimeConfig::parse(Some(name), None, None, None),
                Err(RuntimeConfigError::Kernel(name.into()))
            );
        }
        assert_eq!(
            RuntimeConfig::parse(None, Some("-3"), None, None),
            Err(RuntimeConfigError::Threads("-3".into()))
        );
        // Errors render the offending variable and value.
        let msg = RuntimeConfig::parse(Some("fast"), None, None, None)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("APR_KERNEL") && msg.contains("fast"), "{msg}");
    }

    #[test]
    fn parse_threads() {
        let cfg = RuntimeConfig::parse(None, Some("4"), None, None).unwrap();
        assert_eq!(cfg.threads, 4);
        let cfg = RuntimeConfig::parse(None, Some(" 0 "), None, None).unwrap();
        assert_eq!(cfg.threads, 0);
    }

    #[test]
    fn builder_style_setters_compose() {
        let cfg = RuntimeConfig::default()
            .with_kernel(KernelKind::Reference)
            .with_threads(2);
        assert_eq!(cfg.kernel, Some(KernelKind::Reference));
        assert_eq!(cfg.threads, 2);
    }
}
