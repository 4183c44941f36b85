//! The reference pass: a fixed piece of work, independent of the
//! repository's crates, timed just before every set-up and every timed run.
//!
//! The machine's speed drifts by tens of percent over minutes on a shared
//! host, the same way for this pass and for the workloads, so host times
//! are reported scaled by `NOMINAL_MS / pass time`: the seconds they would
//! take on a host where one pass takes [`NOMINAL_MS`]. The pass mixes the
//! two kinds of work the workloads do: an event loop over a binary heap
//! with vector appends and float math (the simulators' event cores), and
//! dot products, a sort and an exponential sum (the attention kernels). A
//! change to the repository cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host milliseconds of one pass on the machine the bounds were set on
/// (the median over a pass of every workload).
pub const NOMINAL_MS: f64 = 50.0;

/// Host milliseconds of one reference pass, timed now.
pub fn pass_ms() -> f64 {
    let start = Instant::now();
    black_box(event_loop(black_box(300_000)));
    black_box(attention_like(black_box(1_000)));
    start.elapsed().as_secs_f64() * 1e3
}

/// A xorshift step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `events` pops of a 4096-entry timed event heap; each pop appends to one
/// of 64 lists, drains a full list, and schedules a follow-up event.
fn event_loop(events: usize) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
        (0..4096).map(|i| Reverse((i * 7, i))).collect();
    let mut lists = vec![Vec::new(); 64];
    let (mut x, mut acc) = (0x1234_5678_9ABC_DEF1u64, 0u64);
    for _ in 0..events {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let list: &mut Vec<u64> = &mut lists[(next(&mut x) & 63) as usize];
        list.push(t ^ id);
        if list.len() > 32 {
            acc = acc.wrapping_add(list.iter().sum::<u64>());
            list.clear();
        }
        let dt = (x >> 40) % 1000 + 1;
        let jitter = (dt as f64).sqrt() * 1.5 + (t as f64 * 1e-9).exp();
        heap.push(Reverse((t + dt + jitter as u64, id)));
    }
    acc
}

/// `rounds` of: 512 dot products of width 64, a descending sort of the
/// scores, and an exponential sum over the top quarter.
fn attention_like(rounds: usize) -> u64 {
    const DIM: usize = 64;
    const KEYS: usize = 512;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut value = || (next(&mut x) >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
    let keys: Vec<f32> = (0..KEYS * DIM).map(|_| value()).collect();
    let query: Vec<f32> = (0..DIM).map(|_| value()).collect();
    let mut acc = 0u64;
    for round in 0..rounds {
        let mut scores: Vec<(f32, u32)> = keys
            .chunks_exact(DIM)
            .zip(0..)
            .map(|(k, i)| {
                let dot: f32 = k.iter().zip(&query).map(|(a, b)| a * b).sum();
                (dot + round as f32 * 1e-3, i)
            })
            .collect();
        scores.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let top = &scores[..KEYS / 4];
        let sum: f32 = top.iter().map(|s| (s.0 - top[0].0).exp()).sum();
        acc = acc.wrapping_add((sum * 1e3) as u64 + u64::from(top[1].1));
    }
    acc
}
