//! Which CPUs the benchmark's thread may run on.
//!
//! On a shared host each vCPU has its own slow stretches, when the same
//! work runs up to 1.7x slow for seconds at a time, and the two vCPUs'
//! stretches come and go independently. A single-threaded workload
//! moves to the next allowed CPU before each repetition, so its fastest
//! repetitions come from whichever CPU is running at normal speed.

/// The CPUs this thread may run on, lowest first (empty where the
/// affinity mask cannot be read).
pub fn allowed_cpus() -> Vec<usize> {
    affinity()
        .map(|mask| (0..64).filter(|&c| mask >> c & 1 == 1).collect())
        .unwrap_or_default()
}

/// Restricts this thread to the CPUs in `mask` (bit `c` is CPU `c`).
/// Returns whether the kernel accepted the mask.
pub fn pin(mask: u64) -> bool {
    set_affinity(mask)
}

/// `sched_getaffinity` by raw syscall (the workspace links no
/// libc-wrapping crate), for the first 64 CPUs.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity() -> Option<u64> {
    let mut mask = 0u64;
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            in("rax") 204i64, // SYS_sched_getaffinity
            in("rdi") 0i64,   // this thread
            in("rsi") 8usize, // bytes of mask
            in("rdx") &mut mask as *mut u64,
            out("rcx") _,
            out("r11") _,
            lateout("rax") ret,
        );
    }
    (ret > 0).then_some(mask)
}

/// `sched_setaffinity` by raw syscall, for the first 64 CPUs.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: u64) -> bool {
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            in("rax") 203i64, // SYS_sched_setaffinity
            in("rdi") 0i64,   // this thread
            in("rsi") 8usize, // bytes of mask
            in("rdx") &mask as *const u64,
            out("rcx") _,
            out("r11") _,
            lateout("rax") ret,
        );
    }
    ret == 0
}

/// No affinity control here: the workload stays where the OS puts it.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity() -> Option<u64> {
    None
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: u64) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_each_allowed_cpu_and_back_succeeds() {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return;
        }
        let all: u64 = cpus.iter().map(|c| 1u64 << c).sum();
        for &c in &cpus {
            assert!(pin(1 << c), "cpu {c}");
            assert_eq!(allowed_cpus(), vec![c]);
        }
        assert!(pin(all));
        assert_eq!(allowed_cpus(), cpus);
    }
}
