//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the speed of the same instructions drifts by a third
//! over minutes, and process CPU time drifts with it (the slowdown is not
//! descheduling). A gated time taken alone would then move with the host,
//! not with the program. The gated rates are therefore taken per run of
//! this kernel, timed in the same process after every timed operation: a
//! fixed amount of table-driven, branchy integer work on every worker
//! thread, written here and sharing no code with the program, so a change
//! to the program cannot change it.

use std::hint::black_box;
use std::time::Instant;

use crate::workloads::WORKERS;

/// Entries of each thread's table: 256 KiB, like the larger predictor
/// tables, so the kernel stresses the same cache levels.
const TABLE_ENTRIES: usize = 1 << 15;

/// Table steps per thread per kernel run, about 120 ms on a quiet
/// 2-vCPU Xeon host.
const STEPS: u64 = 32_000_000;

/// One thread's share: xorshift-driven reads, data-dependent branches and
/// writes into its own table.
fn thread_kernel(seed: u64) -> u64 {
    let mut table = vec![0u64; TABLE_ENTRIES];
    let mut x = seed | 1;
    for slot in table.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *slot = x;
    }
    let mask = TABLE_ENTRIES - 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let value = table[x as usize & mask];
        if value & 1 == 0 {
            acc = acc.wrapping_add(value);
        } else {
            acc ^= value.rotate_left(9);
        }
        table[value as usize & mask] ^= acc;
    }
    acc
}

/// Runs the kernel once on [`WORKERS`] threads at once and returns its
/// wall seconds.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS as u64)
            .map(|id| scope.spawn(move || thread_kernel(0x9e37_79b9_7f4a_7c15 ^ id)))
            .collect();
        for handle in handles {
            black_box(handle.join().expect("a reference thread panicked"));
        }
    });
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_takes_measurable_time() {
        let seconds = super::kernel_seconds();
        assert!(seconds > 1e-3 && seconds < 10.0, "{seconds}");
    }
}
