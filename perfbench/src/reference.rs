//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! A shared host's speed drifts (other tenants on the same cores, caches and
//! memory), by more than any regression worth catching. Each repetition times this
//! kernel right before and right after the workload, and `run.py` scales the
//! workload's times by the host speed the kernel saw, so the reported times read as
//! if taken at one fixed host speed.
//!
//! The kernel uses only the standard library and its own generator, so no change
//! to the repository's crates can change it. It is a binary heap (the event queue),
//! a hash map (per-endpoint state) and a short run of dependent loads over 4 MiB. On
//! a contended host the workloads slowed by 1.7-2.05x, the heap and the map by about
//! 1.65x and the dependent loads by 3x or more; this mix slows by about as much as
//! the middle of the workloads. Streamed floating-point math (1.35x) was left out.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// xorshift64*: a fixed generator, independent of `simkit::rng`.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Pushes and pops timestamped entries through a heap that holds up to 256k.
fn heap(rng: &mut XorShift) -> u64 {
    let mut heap = BinaryHeap::with_capacity(1 << 18);
    let mut sum = 0u64;
    for round in 0..4u64 {
        for _ in 0..1 << 18 {
            heap.push(std::cmp::Reverse((rng.next() >> 20) + round));
        }
        while let Some(std::cmp::Reverse(t)) = heap.pop() {
            sum = sum.wrapping_add(t);
        }
    }
    sum
}

/// Inserts, updates and reads 512k keys of a hash map.
fn map(rng: &mut XorShift) -> u64 {
    let mut map = HashMap::with_capacity(1 << 19);
    for _ in 0..1 << 19 {
        *map.entry(rng.next() & 0x7_ffff).or_insert(0u64) += 1;
    }
    (0..1u64 << 19).map(|k| map.get(&k).copied().unwrap_or(0)).sum()
}

/// Shuffles 1M slots (4 MiB) into one random cycle and follows half of it.
fn chase(rng: &mut XorShift) -> u64 {
    const SLOTS: usize = 1 << 20;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    // Sattolo's shuffle: a single cycle through every slot.
    for i in (1..SLOTS).rev() {
        let j = (rng.next() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0u32;
    for _ in 0..SLOTS / 2 {
        at = next[at as usize];
    }
    u64::from(at)
}

/// Runs the kernel once; returns its wall time in seconds.
pub fn time_kernel() -> f64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let start = Instant::now();
    black_box(heap(&mut rng));
    black_box(map(&mut rng));
    black_box(chase(&mut rng));
    start.elapsed().as_secs_f64()
}
