//! In-repo benchmarking shim.
//!
//! The workspace builds in hermetic containers with no cargo registry
//! access, so the real `criterion` crate cannot be resolved. This crate
//! provides the subset of its API that `crates/bench/benches/*` use —
//! [`Criterion::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros — with a plain
//! warm-up + sample timing loop and a one-line report per benchmark.
//! There is no statistical analysis, outlier rejection or HTML output;
//! results are indicative, not publication grade.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How [`Bencher::iter_batched`] amortizes setup cost. The shim times each
/// routine invocation individually, so all variants behave identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Fresh setup for every single iteration.
    PerIteration,
}

/// Times closures handed to it by a benchmark target.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    budget: Duration,
    max_samples: usize,
}

impl Bencher {
    fn collect<F: FnMut() -> Duration>(&mut self, mut once: F) {
        // One untimed warm-up iteration, then sample until either the
        // sample quota or the time budget is exhausted.
        let _ = once();
        let started = Instant::now();
        while self.samples.len() < self.max_samples && started.elapsed() < self.budget {
            self.samples.push(once());
        }
    }

    /// Times `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.collect(|| {
            let t = Instant::now();
            black_box(routine());
            t.elapsed()
        });
    }

    /// Times `routine` over inputs produced by `setup`; only the routine
    /// is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.collect(|| {
            let input = setup();
            let t = Instant::now();
            let output = black_box(routine(input));
            let elapsed = t.elapsed();
            // As in criterion: what the routine hands back is dropped off
            // the clock (a returned simulation is not part of the work).
            drop(output);
            elapsed
        });
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up budget (the shim warms up with a single untimed
    /// iteration regardless).
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Runs one benchmark and prints a one-line summary.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            budget: self.measurement_time,
            max_samples: self.sample_size.max(1),
        };
        f(&mut bencher);
        let mut samples = bencher.samples;
        if samples.is_empty() {
            println!("bench {name:<60} no samples collected");
            return self;
        }
        samples.sort_unstable();
        let total: Duration = samples.iter().sum();
        let mean = total / samples.len() as u32;
        let median = samples[samples.len() / 2];
        println!(
            "bench {name:<60} {} samples  mean {:>12?}  median {:>12?}",
            samples.len(),
            mean,
            median,
        );
        self
    }
}

/// Declares a benchmark group: a function running each target against a
/// shared [`Criterion`] configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(200))
            .warm_up_time(Duration::from_millis(1));
        let mut runs = 0u32;
        c.bench_function("shim-self-test", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        assert!(runs > 0, "routine never ran");
    }

    #[test]
    fn iter_batched_times_only_routine() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(200));
        let mut setups = 0u32;
        let mut runs = 0u32;
        c.bench_function("shim-batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    setups
                },
                |v| {
                    runs += 1;
                    black_box(v)
                },
                BatchSize::PerIteration,
            )
        });
        assert_eq!(setups - 1, runs - 1, "one setup per routine invocation");
        assert!(runs >= 1);
    }
}
