//! Virtual time. All simulation timestamps and durations are nanoseconds
//! since the start of the run, carried as a plain `u64`.

/// A point in virtual time or a duration, in nanoseconds.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICROSECOND: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLISECOND: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SECOND: Nanos = 1_000_000_000;

/// Convert nanoseconds to fractional seconds (for reporting).
#[must_use]
pub fn as_secs_f64(t: Nanos) -> f64 {
    t as f64 / SECOND as f64
}

/// Convert milliseconds to [`Nanos`].
#[must_use]
pub fn from_millis(ms: u64) -> Nanos {
    ms * MILLISECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert!((as_secs_f64(2_500_000_000) - 2.5).abs() < 1e-12);
        assert_eq!(from_millis(2), 2_000_000);
    }
}
