//! The reference clock: a fixed piece of work, owned by the benchmark and
//! never touched by a change to the program, timed right before and right
//! after every operation the benchmark times.
//!
//! The guest this runs on shares its cores and caches with other tenants,
//! and its speed moves by a third within minutes: seconds measured by the
//! wall say as much about the neighbours as about the program. A tick says
//! how fast the host is *now*, so a timing is reported in reference
//! seconds: `wall seconds x NOMINAL_TICK_S / (the ticks around it)`. On an
//! undisturbed host a reference second is a wall second; on a disturbed one
//! the tick and the operation slow down together and the quotient stays. A
//! change that makes the program faster leaves the tick alone and moves the
//! quotient by exactly its gain. (One operation is less exposed to what
//! slows the tick than the tick is, and is scaled by a power of it:
//! `world::Archive::write_exposure`.)
//!
//! The work is dense `f32` multiply-adds over a 256 KiB matrix: it runs at
//! full SIMD width out of the core's own L2, so a busy sibling hyper-thread,
//! a throttled core and a stolen time slice slow it the way they slow the
//! program. That was measured, not assumed: with the host disturbed, ten
//! runs of `snapshot_baseline` spread their median read latency over 21 %
//! by the wall and over 4 % against this work, `store_pressure` over 13 %
//! and 4 %. A dependent-load walk through a 1 MiB table was tried beside it
//! and made the quotient worse than the wall (its own time moves with what
//! the operation before it left in the caches); a streaming difference over
//! 4 MiB helped half as much (`README.md`, "Reference seconds").

use std::time::Instant;

use crate::world::Rng;

/// Seconds one tick takes on the 2-vCPU guest the numbers in `BASELINE.md`
/// were taken on, at the quietest it was seen, between operations that
/// have emptied the caches: the scale that makes a reference second a wall
/// second there. Comparisons do not depend on it.
pub const NOMINAL_TICK_S: f64 = 0.0027;

/// Rounds of the fixed work in one tick.
const ROUNDS: usize = 3;
const SIDE: usize = 256;
const PASSES: usize = 450;

/// One thread's share of a tick: its own buffers, so lanes contend for
/// nothing but the host.
struct Lane {
    matrix: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Lane {
    fn new() -> Self {
        // a fixed fill: the work does not depend on `--seed`
        let mut rng = Rng::new(0x5EED_CAFE, 0);
        let mut unit = move || (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        Lane {
            matrix: (0..SIDE * SIDE).map(|_| unit() - 0.5).collect(),
            x: (0..SIDE).map(|_| unit()).collect(),
            y: vec![0.0; SIDE],
        }
    }

    /// The fixed work; returns the seconds it took.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..PASSES {
            for (row, y) in self.matrix.chunks_exact(SIDE).zip(&mut self.y) {
                let mut acc = [0.0f32; 8];
                for (m, x) in row.chunks_exact(8).zip(self.x.chunks_exact(8)) {
                    for k in 0..8 {
                        acc[k] += m[k] * x[k];
                    }
                }
                *y = acc.iter().sum();
            }
            // feed the result back, squashed so it stays finite
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / (1.0 + y.abs());
            }
        }
        std::hint::black_box(&self.x);
        t.elapsed().as_secs_f64()
    }
}

/// What one tick measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Seconds the calling thread's lane took: the clock of an operation
    /// that runs on the calling thread alone.
    pub own_s: f64,
    /// Mean seconds over the lanes: the clock of an operation that fans
    /// out over the program's default worker pool, whose threads take the
    /// next block as they finish one, so its time goes with the cores' mean
    /// speed and not with the slowest.
    pub all_s: f64,
}

/// Which of a tick's two readings an operation is held against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runs {
    /// On the calling thread alone.
    Alone,
    /// On the pool.
    Pooled,
}

impl Tick {
    pub fn seconds(self, runs: Runs) -> f64 {
        match runs {
            Runs::Alone => self.own_s,
            Runs::Pooled => self.all_s,
        }
    }
}

/// Wall seconds in reference seconds, given the tick seconds around them
/// and the operation's `exposure`: the share of a tick's slowdown it
/// suffers, as an exponent. 1 for everything the benchmark times but one
/// operation (`world::Archive::write_exposure`).
pub fn reference_s(wall_s: f64, tick_s: f64, exposure: f64) -> f64 {
    wall_s * (NOMINAL_TICK_S / tick_s).powf(exposure)
}

/// The reference clock of one generator thread.
pub struct RefClock {
    lanes: Vec<Lane>,
}

impl RefClock {
    /// A clock whose ticks run on `lanes` threads at once (the calling
    /// thread included): 1 beside single-threaded operations, the program's
    /// default pool size beside operations that fan out over the pool.
    pub fn new(lanes: usize) -> Self {
        let mut clock = RefClock {
            lanes: (0..lanes.max(1)).map(|_| Lane::new()).collect(),
        };
        // the first run of a lane faults its buffers in
        clock.round();
        clock
    }

    /// Every lane does the fixed work once, side by side, and times
    /// itself (waking a halted core is the host's cost, not the work's).
    fn round(&mut self) -> Tick {
        let (own, others) = self.lanes.split_first_mut().expect("at least one lane");
        std::thread::scope(|s| {
            let others: Vec<_> = others
                .iter_mut()
                .map(|lane| s.spawn(move || lane.run()))
                .collect();
            let own_s = own.run();
            let n = (others.len() + 1) as f64;
            let sum_s = others
                .into_iter()
                .map(|h| h.join().expect("a lane does not panic"))
                .fold(own_s, |a, b| a + b);
            Tick {
                own_s,
                all_s: sum_s / n,
            }
        })
    }

    /// One tick: the median of [`ROUNDS`] rounds, so that a round which an
    /// interrupt or a late core landed on does not set the clock.
    pub fn tick(&mut self) -> Tick {
        let rounds: Vec<Tick> = (0..ROUNDS).map(|_| self.round()).collect();
        let median =
            |f: fn(&Tick) -> f64| crate::stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        Tick {
            own_s: median(|t| t.own_s),
            all_s: median(|t| t.all_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        let (mut a, mut b) = (Lane::new(), Lane::new());
        for _ in 0..2 {
            a.run();
            b.run();
        }
        assert_eq!(a.x, b.x);
        assert!(a.x.iter().all(|v| v.is_finite() && *v != 0.0));
    }

    #[test]
    fn a_tick_covers_every_lane() {
        for lanes in [1, 2, 3] {
            let tick = RefClock::new(lanes).tick();
            assert!(tick.own_s > 0.0 && tick.all_s > 0.0);
            assert_eq!(tick.seconds(Runs::Alone), tick.own_s);
            assert_eq!(tick.seconds(Runs::Pooled), tick.all_s);
        }
        let one = RefClock::new(1).tick();
        assert_eq!(one.own_s, one.all_s);
    }

    #[test]
    fn a_slower_host_cancels_out() {
        // the same operation on a host half as fast: twice the wall
        // seconds, twice the tick, the same reference seconds
        assert_eq!(reference_s(0.5, NOMINAL_TICK_S, 1.0), 0.5);
        assert_eq!(reference_s(1.0, 2.0 * NOMINAL_TICK_S, 1.0), 0.5);
        // an operation half as exposed as the tick: a tick four times as
        // slow says the operation took twice as long as it would have
        assert_eq!(reference_s(1.0, 4.0 * NOMINAL_TICK_S, 0.5), 0.5);
    }
}
