//! Order statistics over equal time slices of one timed region.
//!
//! Every rate and percentile the benchmark reports is computed per slice
//! and then summarised as the mean of the best quarter of slices (the
//! highest rates, the lowest latencies). Interference from other tenants
//! of a shared machine only ever makes a slice worse, and it comes in
//! bursts that can cover most of a run, so the least disturbed slices are
//! the best estimate of the program's own speed — the reasoning behind
//! taking the minimum of repeated timings. Single-record slices are also
//! bimodal, because each slice reconnects and the FrontEnd's reactors race
//! to accept, so the two connections share a reactor in some slices and
//! not in others; the best quarter reads the better placement whenever at
//! least a quarter of the slices drew it, instead of jumping between the
//! two modes as a median does.

/// One completed operation: when it finished (ns since the run epoch),
/// how long it took, and how many records it scored.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub done_ns: u64,
    pub lat_ns: u64,
    pub records: u32,
}

/// Nearest-rank quantile of an ascending slice (`0 < q <= 1`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The operations that completed inside one slice.
#[derive(Debug, Clone)]
pub struct Slice {
    pub secs: f64,
    /// Latencies in microseconds, ascending.
    pub lat_us: Vec<f64>,
    pub records: u64,
}

impl Slice {
    pub fn ops_per_s(&self) -> f64 {
        self.lat_us.len() as f64 / self.secs
    }

    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.secs
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.lat_us, q)
    }
}

/// Cuts `[start_ns, start_ns + dur_ns)` into `n` equal slices and files
/// each sample under the slice in which it completed; samples outside
/// the region are dropped.
pub fn slices(samples: &[Sample], start_ns: u64, dur_ns: u64, n: usize) -> Vec<Slice> {
    assert!(n > 0 && dur_ns > 0, "empty slicing");
    let mut out: Vec<Slice> = (0..n)
        .map(|_| Slice {
            secs: dur_ns as f64 / n as f64 / 1e9,
            lat_us: Vec::new(),
            records: 0,
        })
        .collect();
    for s in samples {
        if s.done_ns < start_ns || s.done_ns >= start_ns + dur_ns {
            continue;
        }
        let k = ((s.done_ns - start_ns) as u128 * n as u128 / dur_ns as u128) as usize;
        out[k].lat_us.push(s.lat_ns as f64 / 1e3);
        out[k].records += u64::from(s.records);
    }
    for slice in &mut out {
        slice.lat_us.sort_by(f64::total_cmp);
    }
    out
}

/// Which end of a statistic is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Mean of the best quarter of `values` (rounded up, so at least one).
pub fn best_quarter_mean(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best quarter of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let best = &v[..v.len().div_ceil(4)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// Best-quarter mean over the non-empty slices of a per-slice statistic;
/// `None` when every slice is empty.
pub fn over_slices(slices: &[Slice], better: Better, stat: impl Fn(&Slice) -> f64) -> Option<f64> {
    let values: Vec<f64> = slices
        .iter()
        .filter(|s| !s.lat_us.is_empty())
        .map(stat)
        .collect();
    (!values.is_empty()).then(|| best_quarter_mean(&values, better))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_slices(n: usize, per_slice: usize, lat_ns: u64) -> Vec<Sample> {
        let slice_ns = 1_000_000_000u64;
        (0..n)
            .flat_map(|k| {
                (0..per_slice).map(move |i| Sample {
                    done_ns: k as u64 * slice_ns + i as u64 * (slice_ns / per_slice as u64),
                    lat_ns,
                    records: 1,
                })
            })
            .collect()
    }

    #[test]
    fn slice_statistic_ignores_a_single_outlier_slice() {
        // Slice 4 stalls: a tenth of the throughput at fifty times the
        // latency.
        let stalled = 4_000_000_000..5_000_000_000u64;
        let mut samples = uniform_slices(10, 100, 20_000);
        samples.retain(|s| !stalled.contains(&s.done_ns) || (s.done_ns / 10_000_000) % 10 == 0);
        for s in samples.iter_mut().filter(|s| stalled.contains(&s.done_ns)) {
            s.lat_ns = 1_000_000;
        }
        let sl = slices(&samples, 0, 10_000_000_000, 10);
        assert_eq!(sl[4].lat_us.len(), 10);
        assert_eq!(
            over_slices(&sl, Better::Higher, Slice::ops_per_s),
            Some(100.0)
        );
        assert_eq!(
            over_slices(&sl, Better::Lower, |s| s.quantile_us(0.99)),
            Some(20.0)
        );
        assert_eq!(
            over_slices(&sl, Better::Lower, |s| s.quantile_us(0.5)),
            Some(20.0)
        );
    }

    #[test]
    fn slice_statistic_ignores_contention_over_most_slices() {
        // Fifteen of twenty slices slowed by 10% to 3x: the best quarter
        // is the five undisturbed ones.
        let mut lat: Vec<f64> = (0..15).map(|i| 40.0 * (1.1 + 0.13 * i as f64)).collect();
        lat.extend([40.0; 5]);
        assert_eq!(best_quarter_mean(&lat, Better::Lower), 40.0);
        let rate: Vec<f64> = lat.iter().map(|l| 1e6 / l).collect();
        assert_eq!(best_quarter_mean(&rate, Better::Higher), 25_000.0);
    }

    #[test]
    fn slice_statistic_does_not_jump_between_two_modes() {
        // Seven slices at 40 and five at 50, then five at 40 and seven at
        // 50: a median jumps from 40 to 50, the best quarter stays at 40.
        let seven_five = [40.0; 7]
            .iter()
            .chain(&[50.0; 5])
            .copied()
            .collect::<Vec<_>>();
        let five_seven = [40.0; 5]
            .iter()
            .chain(&[50.0; 7])
            .copied()
            .collect::<Vec<_>>();
        assert_eq!((median(&seven_five), median(&five_seven)), (40.0, 50.0));
        assert_eq!(best_quarter_mean(&seven_five, Better::Lower), 40.0);
        assert_eq!(best_quarter_mean(&five_seven, Better::Lower), 40.0);
        assert_eq!(
            best_quarter_mean(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Higher),
            4.5
        );
    }

    #[test]
    fn samples_outside_the_region_are_dropped() {
        let samples = [
            Sample {
                done_ns: 5,
                lat_ns: 1,
                records: 1,
            },
            Sample {
                done_ns: 10,
                lat_ns: 1,
                records: 3,
            },
            Sample {
                done_ns: 29,
                lat_ns: 1,
                records: 1,
            },
            Sample {
                done_ns: 30,
                lat_ns: 1,
                records: 1,
            },
        ];
        let sl = slices(&samples, 10, 20, 2);
        assert_eq!(sl[0].records, 3);
        assert_eq!(sl[1].records, 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
