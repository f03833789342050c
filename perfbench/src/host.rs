//! The host fingerprint printed with every result: what a number was
//! measured on, so results from different machines are not compared as
//! if they were the same.

use qsim::parallel::WorkerPool;

/// Logical cores, CPU model, dispatched kernel rung, pool size and the
/// configured ensemble thread count.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism()`.
    pub cores: usize,
    /// The CPU brand string (`unknown` off x86-64).
    pub cpu_model: String,
    /// Whether the AVX2/FMA GEMM kernels are dispatched.
    pub simd_active: bool,
    /// Threads that take part in a pool job: resident workers plus caller.
    pub pool_participants: usize,
    /// The workload's `QuorumConfig::threads` (0 = all cores).
    pub config_threads: usize,
}

impl Host {
    /// Fingerprints this process's host for a workload configured with
    /// `config_threads`.
    pub fn probe(config_threads: usize) -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: cpu_model(),
            simd_active: qsim::kernel::simd_active(),
            pool_participants: WorkerPool::global().workers() + 1,
            config_threads,
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: cores={} cpu=\"{}\" simd_active={} pool_participants={} config_threads={}",
            self.cores,
            self.cpu_model,
            self.simd_active,
            self.pool_participants,
            self.config_threads
        )
    }

    /// The fingerprint as JSON object members.
    pub fn json_members(&self) -> String {
        format!(
            "\"cores\":{},\"cpu_model\":\"{}\",\"simd_active\":{},\"pool_participants\":{},\"config_threads\":{}",
            self.cores,
            self.cpu_model.replace(['"', '\\'], ""),
            self.simd_active,
            self.pool_participants,
            self.config_threads
        )
    }
}

/// The processor brand string from CPUID leaves 0x8000_0002..=4.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    #[allow(unused_unsafe)]
    // SAFETY: CPUID exists on every x86-64 processor, and the extended
    // brand leaves are only read after leaf 0x8000_0000 reports them.
    let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".into();
    }
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        #[allow(unused_unsafe)]
        // SAFETY: as above; the leaf is within the reported range.
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}
