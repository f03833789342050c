//! Preprocessing: the paper's range normalisation and non-numeric hashing.
//!
//! §IV-A: *"Given a dataset with M features, Quorum normalizes each feature
//! so that its maximum possible value is 1/M"*, i.e.
//!
//! ```text
//! normalized = raw / (max_feature_value × M)
//! ```
//!
//! which guarantees `Σ_j normalized_j² ≤ Σ_j (1/M)² · M = 1/M ≤ 1` for any
//! sample, so the squared values are valid probability masses with room for
//! the overflow state.

use crate::dataset::Dataset;

/// A fitted range normaliser: stores per-feature absolute maxima so that
/// held-out samples can be transformed consistently.
///
/// # Examples
///
/// ```
/// use qdata::dataset::Dataset;
/// use qdata::preprocess::RangeNormalizer;
///
/// let ds = Dataset::from_rows("d", vec![vec![2.0, 10.0], vec![4.0, -20.0]], None).unwrap();
/// let norm = RangeNormalizer::fit(&ds);
/// let out = norm.transform(&ds);
/// // M = 2 features: max of |f0| is 4 => 2.0 -> 2/(4*2) = 0.25
/// assert!((out.sample(0)[0] - 0.25).abs() < 1e-12);
/// // every value is within [-1/M, 1/M]
/// assert!(out.rows().iter().flatten().all(|v| v.abs() <= 0.5 + 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RangeNormalizer {
    maxima: Vec<f64>,
}

impl RangeNormalizer {
    /// Learns per-feature absolute maxima from `ds`.
    pub fn fit(ds: &Dataset) -> Self {
        RangeNormalizer {
            maxima: ds.column_abs_max(),
        }
    }

    /// Rebuilds a fitted normaliser from stored per-feature maxima
    /// (e.g. thawed from a frozen-detector artifact).
    pub fn from_maxima(maxima: Vec<f64>) -> Self {
        RangeNormalizer { maxima }
    }

    /// The stored per-feature maxima.
    pub fn maxima(&self) -> &[f64] {
        &self.maxima
    }

    /// Applies `raw / (max × M)` per feature. Constant-zero features map to
    /// zero. Values larger than the fitted maxima (possible on held-out
    /// data) are clamped into `[-1/M, 1/M]`.
    ///
    /// # Panics
    ///
    /// Panics if `ds` has a different feature count than the fitted data.
    pub fn transform(&self, ds: &Dataset) -> Dataset {
        let m = self.maxima.len();
        assert_eq!(ds.num_features(), m, "feature count mismatch");
        let bound = 1.0 / m as f64;
        let rows = ds
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.maxima)
                    .map(|(&v, &mx)| {
                        if mx == 0.0 {
                            0.0
                        } else {
                            (v / (mx * m as f64)).clamp(-bound, bound)
                        }
                    })
                    .collect()
            })
            .collect();
        Dataset::from_rows(
            format!("{}-normalized", ds.name()),
            rows,
            ds.labels().map(<[bool]>::to_vec),
        )
        .expect("normalising preserves shape")
        .with_feature_names(ds.feature_names().to_vec())
    }

    /// Convenience: fit on `ds` and transform it.
    pub fn fit_transform(ds: &Dataset) -> Dataset {
        Self::fit(ds).transform(ds)
    }
}

/// A min–max normaliser mapping each feature into `[0, 1/M]` via
/// `(v − min) / ((max − min) · M)`.
///
/// This is **not** the paper's formula (see [`RangeNormalizer`]) but an
/// extension this reproduction evaluates: the paper's `raw / (max · M)`
/// compresses offset-heavy features (e.g. ambient pressure ~1000 mbar
/// varying by ±2%) into nearly constant amplitudes, hiding their anomaly
/// signal. Min–max rescaling restores per-feature contrast while keeping
/// the `Σ v² ≤ 1` embedding guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxNormalizer {
    /// Learns per-feature minima and ranges from `ds`.
    pub fn fit(ds: &Dataset) -> Self {
        let m = ds.num_features();
        let mut mins = vec![f64::INFINITY; m];
        let mut maxs = vec![f64::NEG_INFINITY; m];
        for row in ds.rows() {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        let ranges = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
        MinMaxNormalizer { mins, ranges }
    }

    /// Rebuilds a fitted normaliser from stored per-feature minima and
    /// ranges (e.g. thawed from a frozen-detector artifact).
    ///
    /// # Panics
    ///
    /// Panics if `mins` and `ranges` have different lengths.
    pub fn from_parts(mins: Vec<f64>, ranges: Vec<f64>) -> Self {
        assert_eq!(mins.len(), ranges.len(), "mins/ranges length mismatch");
        MinMaxNormalizer { mins, ranges }
    }

    /// The stored per-feature minima.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// The stored per-feature ranges (`max − min`).
    pub fn ranges(&self) -> &[f64] {
        &self.ranges
    }

    /// Applies `(v − min) / (range · M)` per feature, clamping held-out
    /// values into `[0, 1/M]`. Constant features map to zero.
    ///
    /// # Panics
    ///
    /// Panics if `ds` has a different feature count than the fitted data.
    pub fn transform(&self, ds: &Dataset) -> Dataset {
        let m = self.mins.len();
        assert_eq!(ds.num_features(), m, "feature count mismatch");
        let rows = ds
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .zip(self.mins.iter().zip(&self.ranges))
                    .map(|(&v, (&lo, &range))| Self::scale(v, lo, range, m as f64))
                    .collect()
            })
            .collect();
        Dataset::from_rows(
            format!("{}-minmax", ds.name()),
            rows,
            ds.labels().map(<[bool]>::to_vec),
        )
        .expect("normalising preserves shape")
        .with_feature_names(ds.feature_names().to_vec())
    }

    /// Convenience: fit on `ds` and transform it.
    pub fn fit_transform(ds: &Dataset) -> Dataset {
        Self::fit(ds).transform(ds)
    }

    /// One value of [`MinMaxNormalizer::transform`]: `(v − lo) / (range ·
    /// m)` clamped into `[0, 1/m]`, or zero for a constant feature.
    ///
    /// A finite column can span more than `f64::MAX` (e.g. −1e308 and
    /// 1e308), and then `range · m` overflows to infinity and `(v − lo)`
    /// can too, giving `inf / inf = NaN`. That case is computed at half
    /// scale with the range saturated at `f64::MAX`, so every finite
    /// input maps to a finite, in-range value. Whenever `range · m` is
    /// finite the result is the plain formula, bit for bit.
    pub fn scale(v: f64, lo: f64, range: f64, m: f64) -> f64 {
        if range <= 0.0 {
            return 0.0;
        }
        let span = range * m;
        let t = if span.is_finite() {
            (v - lo) / span
        } else {
            ((0.5 * v - 0.5 * lo) / m) / (0.5 * range.min(f64::MAX))
        };
        t.clamp(0.0, 1.0 / m)
    }
}

/// Hashes an arbitrary string into a stable float in `[0, 1)` (FNV-1a),
/// the paper's strategy for "transforming all non-numeric features into
/// float values (e.g., via hashing)".
///
/// # Examples
///
/// ```
/// use qdata::preprocess::hash_to_unit;
///
/// let a = hash_to_unit("category-a");
/// assert!((0.0..1.0).contains(&a));
/// assert_eq!(a, hash_to_unit("category-a")); // stable
/// assert_ne!(a, hash_to_unit("category-b"));
/// ```
pub fn hash_to_unit(text: &str) -> f64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut hash = FNV_OFFSET;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Use the top 53 bits for a uniform double in [0,1).
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            vec![
                vec![1.0, 100.0, 0.0],
                vec![2.0, -50.0, 0.0],
                vec![4.0, 25.0, 0.0],
            ],
            Some(vec![false, false, true]),
        )
        .unwrap()
    }

    #[test]
    fn normalisation_bounds_every_feature_by_one_over_m() {
        let out = RangeNormalizer::fit_transform(&toy());
        let m = 3.0;
        for row in out.rows() {
            for v in row {
                assert!(v.abs() <= 1.0 / m + 1e-12);
            }
        }
    }

    #[test]
    fn normalisation_matches_formula() {
        let ds = toy();
        let out = RangeNormalizer::fit_transform(&ds);
        // f0 max is 4, M=3: 1.0 -> 1/(4*3)
        assert!((out.sample(0)[0] - 1.0 / 12.0).abs() < 1e-12);
        // f1 max |.|=100: -50 -> -50/(100*3)
        assert!((out.sample(1)[1] + 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_squares_is_at_most_one() {
        let out = RangeNormalizer::fit_transform(&toy());
        for row in out.rows() {
            let s: f64 = row.iter().map(|v| v * v).sum();
            assert!(s <= 1.0 + 1e-12, "sum of squares {s}");
        }
    }

    #[test]
    fn zero_columns_stay_zero() {
        let out = RangeNormalizer::fit_transform(&toy());
        assert!(out.rows().iter().all(|r| r[2] == 0.0));
    }

    #[test]
    fn labels_survive_normalisation() {
        let out = RangeNormalizer::fit_transform(&toy());
        assert_eq!(out.labels().unwrap(), &[false, false, true]);
    }

    #[test]
    fn held_out_values_are_clamped() {
        let ds = toy();
        let norm = RangeNormalizer::fit(&ds);
        let bigger = Dataset::from_rows("big", vec![vec![8.0, 300.0, 1.0]], None).unwrap();
        let out = norm.transform(&bigger);
        assert!((out.sample(0)[0] - 1.0 / 3.0).abs() < 1e-12); // clamped to 1/M
        assert!((out.sample(0)[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn transform_rejects_width_mismatch() {
        let norm = RangeNormalizer::fit(&toy());
        let other = Dataset::from_rows("w", vec![vec![1.0]], None).unwrap();
        norm.transform(&other);
    }

    #[test]
    fn minmax_restores_contrast_on_offset_features() {
        // An "ambient pressure"-like feature: large offset, small range.
        let ds =
            Dataset::from_rows("ap", vec![vec![995.0], vec![1015.0], vec![1035.0]], None).unwrap();
        let range_max = RangeNormalizer::fit_transform(&ds);
        let min_max = MinMaxNormalizer::fit_transform(&ds);
        // raw/max collapses the spread to ~4%; min-max spans the full
        // [0, 1/M] interval.
        let spread = |d: &Dataset| {
            d.column(0).iter().cloned().fold(f64::MIN, f64::max)
                - d.column(0).iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(spread(&range_max) < 0.05);
        assert!((spread(&min_max) - 1.0).abs() < 1e-12); // M = 1 here
    }

    #[test]
    fn minmax_bounds_and_embedding_guarantee() {
        let ds = toy();
        let out = MinMaxNormalizer::fit_transform(&ds);
        let m = 3.0;
        for row in out.rows() {
            let mass: f64 = row.iter().map(|v| v * v).sum();
            assert!(mass <= 1.0 + 1e-12);
            for &v in row {
                assert!((0.0..=1.0 / m + 1e-12).contains(&v));
            }
        }
        // Constant column stays zero.
        assert!(out.rows().iter().all(|r| r[2] == 0.0));
    }

    #[test]
    fn minmax_clamps_held_out_values() {
        let ds = toy();
        let norm = MinMaxNormalizer::fit(&ds);
        let outlier = Dataset::from_rows("big", vec![vec![99.0, -999.0, 5.0]], None).unwrap();
        let out = norm.transform(&outlier);
        assert!((out.sample(0)[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.sample(0)[1], 0.0);
    }

    #[test]
    fn minmax_survives_a_column_wider_than_f64_max() {
        // hi − lo overflows to inf; inf / inf used to be a NaN that made
        // `transform` panic while rebuilding the dataset.
        let ds = Dataset::from_rows(
            "wide",
            vec![vec![-1e308, 1.0], vec![1e308, 2.0], vec![0.0, 3.0]],
            None,
        )
        .unwrap();
        let norm = MinMaxNormalizer::fit(&ds);
        assert_eq!(norm.ranges()[0], f64::INFINITY);
        let out = norm.transform(&ds);
        for row in out.rows() {
            for &v in row {
                assert!(v.is_finite() && (0.0..=0.5).contains(&v), "{v}");
            }
        }
        // Order is kept: min at zero, max at the 1/M cap, zero between.
        let col: Vec<f64> = out.rows().iter().map(|r| r[0]).collect();
        assert_eq!(col[0], 0.0);
        assert_eq!(col[1], 0.5);
        assert!(col[0] < col[2] && col[2] < col[1]);
        // The ordinary column keeps the plain formula.
        assert_eq!(out.sample(0)[1], 0.0);
        assert_eq!(out.sample(2)[1], 0.5);
        // A finite but huge range whose `range · M` overflows, probed
        // with a held-out value whose `v − lo` overflows too.
        let v = MinMaxNormalizer::scale(1.7e308, -0.75e308, 1.5e308, 3.0);
        assert!(v.is_finite() && (0.0..=1.0 / 3.0).contains(&v), "{v}");
    }

    #[test]
    fn hashing_is_stable_and_spread() {
        let values: Vec<f64> = ["red", "green", "blue", "mauve", "teal"]
            .iter()
            .map(|s| hash_to_unit(s))
            .collect();
        for v in &values {
            assert!((0.0..1.0).contains(v));
        }
        // All distinct (FNV-1a collisions on 5 short strings would be
        // astronomically unlikely).
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                assert_ne!(values[i], values[j]);
            }
        }
        assert_eq!(hash_to_unit(""), hash_to_unit(""));
    }
}
