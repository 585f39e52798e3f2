//! The datagram path's integer delays against the float expressions they
//! replace, which stay the specification: `serialization(size, bandwidth)`
//! must equal `Duration::from_secs_f64(size as f64 / bandwidth as f64)` and
//! `SimRng::jitter(bound)` must equal `bound.mul_f64(rng.gen_f64())` — the
//! same `Duration`, bit for bit, with the generator left where `gen_f64`
//! leaves it. Each function rounds the exact quotient itself and hands a
//! value within the float's error of a half nanosecond back to the float
//! expression; the tests also show that both hand-backs run, by restating
//! their predicates here. Dropping either hand-back, or truncating instead
//! of rounding, fails them. A `>=` for `>` in either rounding is an
//! equivalent change and cannot: every exact tie lies inside the hand-back.

use std::time::Duration;

use super::serialization;
use crate::rng::{scaled, SimRng};

/// The sweep's bandwidths, B/s: the LAN and WAN profiles, 400 MB/s (every
/// odd size is an exact half nanosecond), tiny and odd ones, and the
/// largest the integer path takes.
const BANDWIDTHS: [u64; 9] = [
    12_500_000,
    1_250_000,
    400_000_000,
    1,
    3,
    7,
    125,
    1_000_000_007,
    (1 << 53) - 1,
];

/// The jitter bounds in use: the LAN profile's, the servers' scheduling
/// jitter, the WAN profile's and the ablations' high-jitter WAN.
const BOUNDS: [Duration; 4] = [
    Duration::from_micros(300),
    Duration::from_millis(2),
    Duration::from_millis(15),
    Duration::from_millis(60),
];

/// Whether `serialization` hands `(size, bandwidth)` to the float.
fn serialization_falls_back(size: usize, bandwidth: u64) -> bool {
    match (size as u64).checked_mul(1_000_000_000) {
        Some(num) if (1..1 << 53).contains(&bandwidth) => {
            (2 * (num % bandwidth)).abs_diff(bandwidth) <= (num >> 52) + 1
        }
        _ => true,
    }
}

/// Whether `scaled` hands `(bound, k)` to the float.
fn jitter_falls_back(bound: Duration, k: u64) -> bool {
    let bound_ns = bound.as_nanos();
    let num = bound_ns * u128::from(k);
    let twice_rem = 2 * (num % (1 << 53));
    bound_ns >= 1 << 60 || twice_rem.abs_diff(1 << 53) <= (num >> 49) + 4
}

fn float_serialization(size: usize, bandwidth: u64) -> Duration {
    Duration::from_secs_f64(size as f64 / bandwidth as f64)
}

/// Every size in `0..=max_size` at every bandwidth; returns how many the
/// integer path handed to the float.
fn sweep_serialization(max_size: usize) -> usize {
    let mut fallbacks = 0;
    for bandwidth in BANDWIDTHS {
        for size in 0..=max_size {
            assert_eq!(
                serialization(size, bandwidth),
                float_serialization(size, bandwidth),
                "{size} B at {bandwidth} B/s"
            );
            fallbacks += usize::from(serialization_falls_back(size, bandwidth));
        }
    }
    fallbacks
}

/// One jitter draw against `gen_f64` on a clone: the same delay, the same
/// generator state afterwards.
fn check_draw(rng: &mut SimRng, bound: Duration) {
    let mut float_rng = rng.clone();
    assert_eq!(
        rng.jitter(bound),
        bound.mul_f64(float_rng.gen_f64()),
        "{bound:?}"
    );
    assert_eq!(*rng, float_rng, "jitter must take exactly gen_f64's draw");
}

/// `draws` draws at each fixed bound, then `random_bounds` random bounds
/// up to 10 s with 40 draws each.
fn sweep_jitter(seed: u64, draws: usize, random_bounds: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    for bound in BOUNDS {
        (0..draws).for_each(|_| check_draw(&mut rng, bound));
    }
    for _ in 0..random_bounds {
        let bound = Duration::from_nanos(rng.gen_range_u64(1, 10_000_000_001));
        (0..40).for_each(|_| check_draw(&mut rng, bound));
    }
}

#[test]
fn serialization_equals_the_float_expression() {
    let fallbacks = sweep_serialization(65_535);
    assert!(fallbacks > 0, "the float hand-back never ran");
}

/// At 400 MB/s an odd size is `n + ½` ns exactly, and the float quotient
/// lands on either side: no integer rounding rule could match it, so the
/// hand-back is what makes the result exact.
#[test]
fn exact_half_nanoseconds_round_both_ways_and_fall_back() {
    let bandwidth = 400_000_000;
    let (mut up, mut down) = (0, 0);
    for size in (1..=65_535).step_by(2) {
        assert!(serialization_falls_back(size, bandwidth));
        let got = serialization(size, bandwidth);
        assert_eq!(got, float_serialization(size, bandwidth));
        let floor = size as u128 * 5 / 2;
        match got.as_nanos() - floor {
            0 => down += 1,
            1 => up += 1,
            _ => panic!("{size} B: {got:?} is not ⌊{floor}⌋ or ⌈{floor}⌉ ns"),
        }
    }
    assert!(up > 0 && down > 0, "{up} up, {down} down");
}

/// Beyond the integer path's range — a bandwidth of 2⁵³ B/s, sizes whose
/// nanosecond numerator overflows `u64` — the float decides.
#[test]
fn serialization_out_of_range_takes_the_float() {
    for (size, bandwidth) in [(1_500, 1 << 53), (1 << 40, 12_500_000), (usize::MAX, 3)] {
        assert!(serialization_falls_back(size, bandwidth));
        assert_eq!(
            serialization(size, bandwidth),
            float_serialization(size, bandwidth)
        );
    }
}

#[test]
fn jitter_equals_the_float_expression_and_takes_one_draw() {
    sweep_jitter(28, 20_000, 500);
}

/// `bound_ns · k / 2⁵³` is an exact half nanosecond when `k = 2^(52 − z)`,
/// `z` the trailing zero bits of `bound_ns`, since `bound_ns · k` is then
/// an odd multiple of 2⁵²: 1 ns with `k = 2⁵²`, and one such `k` for each
/// fixed bound. Each falls back and equals the float; so do its neighbours
/// and a bound of 2⁶⁰ ns.
#[test]
fn jitter_ties_fall_back_to_the_float() {
    let ties = BOUNDS
        .into_iter()
        .chain([Duration::from_nanos(1), Duration::from_nanos(3)]);
    for bound in ties {
        let k = 1 << (52 - bound.as_nanos().trailing_zeros());
        assert!(jitter_falls_back(bound, k), "{bound:?} at k = {k}");
        for k in [k - 1, k, k + 1] {
            assert_eq!(
                scaled(bound, k),
                bound.mul_f64(k as f64 / (1u64 << 53) as f64),
                "{bound:?} at k = {k}"
            );
        }
    }
    let huge = Duration::from_nanos(1 << 60);
    let k = (1 << 53) - 1;
    assert!(jitter_falls_back(huge, k));
    assert_eq!(
        scaled(huge, k),
        huge.mul_f64(k as f64 / (1u64 << 53) as f64)
    );
}

/// The full sweep, for release builds (2.7 M serializations, 2·10⁷ jitter
/// draws): `cargo test --release -p simnet --lib -- --ignored`.
#[test]
#[ignore = "release-build sweep; run with --ignored"]
fn full_exactness_sweep() {
    assert!(sweep_serialization(300_000) > 0);
    sweep_jitter(1_000_003, 4_000_000, 100_000);
}
