//! Output checks: every response against the volcano reference.

/// Absolute score tolerance, the one the repository's engine-equivalence
/// tests use.
pub const TOL: f32 = 1e-4;

/// Why a response was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The response did not hold one score per record sent.
    Length { got: usize, want: usize },
    /// A score differs from its reference by `TOL` or more (or is NaN).
    Score { row: usize, got: f32, want: f32 },
    /// A sentiment score outside `[0, 1]`.
    OutOfRange { row: usize, got: f32 },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Length { got, want } => write!(f, "{got} scores for {want} records"),
            Mismatch::Score { row, got, want } => {
                write!(f, "row {row}: score {got} differs from reference {want}")
            }
            Mismatch::OutOfRange { row, got } => write!(f, "row {row}: score {got} outside [0, 1]"),
        }
    }
}

/// Whether two scores agree within `TOL` (NaN never agrees).
pub fn close(got: f32, want: f32) -> bool {
    (got - want).abs() < TOL
}

/// Checks one response: its length, each score against its reference,
/// and, for sentiment pipelines (`unit_range`), that scores are
/// probabilities.
pub fn check(got: &[f32], want: &[f32], unit_range: bool) -> Result<(), Mismatch> {
    if got.len() != want.len() {
        return Err(Mismatch::Length {
            got: got.len(),
            want: want.len(),
        });
    }
    for (row, (&g, &w)) in got.iter().zip(want).enumerate() {
        if unit_range && !(0.0..=1.0).contains(&g) {
            return Err(Mismatch::OutOfRange { row, got: g });
        }
        if !close(g, w) {
            return Err(Mismatch::Score {
                row,
                got: g,
                want: w,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_equal_scores() {
        assert_eq!(check(&[0.25, 0.5], &[0.25, 0.50001], true), Ok(()));
    }

    #[test]
    fn flags_a_score_perturbed_by_1e_3() {
        let want = [0.25f32, 0.5, 0.75];
        let mut got = want;
        got[1] += 1e-3;
        assert_eq!(
            check(&got, &want, true),
            Err(Mismatch::Score {
                row: 1,
                got: got[1],
                want: 0.5
            })
        );
    }

    #[test]
    fn flags_a_short_batch() {
        assert_eq!(
            check(&[0.1, 0.2], &[0.1, 0.2, 0.3], true),
            Err(Mismatch::Length { got: 2, want: 3 })
        );
    }

    #[test]
    fn flags_out_of_range_sentiment_and_nan() {
        assert!(matches!(
            check(&[1.5], &[1.5], true),
            Err(Mismatch::OutOfRange { row: 0, .. })
        ));
        // Regression scores may leave [0, 1].
        assert_eq!(check(&[41.0], &[41.0], false), Ok(()));
        assert!(check(&[f32::NAN], &[0.5], false).is_err());
    }
}
