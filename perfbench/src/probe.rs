//! A fixed reference computation that tracks how fast the host runs.
//!
//! On the shared 2-vCPU VMs this benchmark was tuned on, the same binary
//! on the same input ran up to 1.7x slower from one minute to the next,
//! far more than the changes the benchmark has to resolve. Timing this
//! kernel next to the program's work and scaling the program's times by
//! `REF_NS / median(probe)` cancels most of that drift: the kernel is a
//! set-associative cache model over a skewed address stream, close in
//! kind to the simulator's hot loops, and it shares no code with the
//! program, so no change to the program can move it.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// The kernel's median time on the VM the bounds were set on, ns.
pub const REF_NS: f64 = 12.5e6;

fn kernel() -> u64 {
    let (sets, ways) = (2048usize, 8usize);
    let mut tags = vec![u64::MAX; sets * ways];
    let mut stamp = vec![0u64; sets * ways];
    let mut lines: HashMap<u64, u32> = HashMap::new();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut hits = 0u64;
    for t in 1..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if x % 10 < 7 { x % 4096 } else { x % (1 << 20) };
        let base = (addr as usize % sets) * ways;
        let mut victim = base;
        let mut hit = false;
        for w in base..base + ways {
            if tags[w] == addr {
                stamp[w] = t;
                hit = true;
                break;
            }
            if stamp[w] < stamp[victim] {
                victim = w;
            }
        }
        if hit {
            hits += 1;
        } else {
            tags[victim] = addr;
            stamp[victim] = t;
            *lines.entry(addr >> 6).or_default() += 1;
        }
    }
    hits + lines.len() as u64
}

/// Runs the kernel once and returns its wall time, ns.
pub fn probe_ns() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_nanos() as f64
}

/// The factor that scales a run's times to the reference host speed.
pub fn speed_factor(probes: &[f64]) -> f64 {
    median(probes).map_or(1.0, |p| REF_NS / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_scales_inversely() {
        assert_eq!(kernel(), kernel());
        assert_eq!(speed_factor(&[REF_NS]), 1.0);
        assert_eq!(speed_factor(&[2.0 * REF_NS, 2.0 * REF_NS, 9.0]), 0.5);
        assert_eq!(speed_factor(&[]), 1.0);
    }
}
