//! Process-wide default kernel selection.
//!
//! A lattice with no explicit [`KernelKind`](apr_kernels::KernelKind)
//! choice resolves through [`default_kernel`], in priority order:
//!
//! 1. the kernel pinned by an installed
//!    [`RuntimeConfig`](apr_kernels::RuntimeConfig) (an explicit `auto`
//!    falls through to step 3),
//! 2. otherwise `APR_KERNEL` ([`apr_kernels::runtime::env_kernel`];
//!    garbage values panic — a silently ignored typo would invalidate a
//!    benchmark run),
//! 3. otherwise [`KernelKind::FusedSwap`], the one production kernel.
//!
//! The result is a constant of the process's configuration, so two
//! processes on one host always run the same kernel.

use apr_kernels::{runtime, KernelKind};

/// The process-default kernel: the installed
/// [`RuntimeConfig`](apr_kernels::RuntimeConfig) override if pinned, else
/// `APR_KERNEL`, else [`KernelKind::FusedSwap`].
pub fn default_kernel() -> KernelKind {
    let forced = if runtime::kernel_pinned() {
        runtime::kernel_override()
    } else {
        runtime::env_kernel().unwrap_or_else(|e| panic!("{e}"))
    };
    forced.unwrap_or(KernelKind::FusedSwap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kernel_is_stable_across_calls() {
        let first = default_kernel();
        for _ in 0..3 {
            assert_eq!(default_kernel(), first);
        }
        // No test of this crate installs a RuntimeConfig, so with the
        // variable unset the default is the constant.
        if std::env::var_os("APR_KERNEL").is_none() {
            assert_eq!(first, KernelKind::FusedSwap);
        }
    }
}
