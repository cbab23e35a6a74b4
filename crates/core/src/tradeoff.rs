//! Technology trade-off surface — the paper's Fig. 10.
//!
//! "The ratio of the total energy dissipation for SOIAS to SOI was
//! analyzed as a function of algorithm and architecture dependent
//! parameters (fga and bga). … The zero contour shows the breakeven
//! point — points that lie below the line indicate a reduction in power
//! using the SOIAS technology over a conventional SOI technology."

use crate::activity::ActivityVars;
use crate::energy::{BlockParams, BurstEnergyModel};
use crate::error::CoreError;
use lowvolt_device::technology::Technology;

/// A named application operating point placed on the surface.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Label ("adder", "multiplier", …).
    pub name: String,
    /// The activity point.
    pub activity: ActivityVars,
    /// `log10(E_a / E_b)` at this point.
    pub log_ratio: f64,
    /// Energy saving of technology `a` over `b`, `1 − E_a/E_b`.
    pub saving: f64,
}

/// The evaluated `log10(E_a/E_b)` surface over a log-spaced
/// `(fga, bga)` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffSurface {
    fga_axis: Vec<f64>,
    bga_axis: Vec<f64>,
    /// `values[i][j]` is the log-ratio at `(fga_axis[i], bga_axis[j])`.
    values: Vec<Vec<f64>>,
}

impl TradeoffSurface {
    /// Evaluates the surface for technology `a` versus baseline `b`,
    /// row by row; the first (lowest-`fga`-index) error wins.
    ///
    /// Axes are log-spaced over `[fga_range.0, fga_range.1]` ×
    /// `[bga_range.0, bga_range.1]`; infeasible cells (`bga > fga`) hold
    /// `NaN`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for empty or inverted
    /// ranges or fewer than 2 points per axis.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        model: &BurstEnergyModel,
        tech_a: &Technology,
        tech_b: &Technology,
        block: &BlockParams,
        alpha: f64,
        fga_range: (f64, f64),
        bga_range: (f64, f64),
        points: usize,
    ) -> Result<TradeoffSurface, CoreError> {
        for (name, (lo, hi)) in [("fga_range", fga_range), ("bga_range", bga_range)] {
            if !(lo > 0.0 && hi > lo && hi <= 1.0) {
                return Err(CoreError::InvalidParameter {
                    name,
                    value: lo,
                    constraint: "need 0 < lo < hi <= 1 (log axes)",
                });
            }
        }
        if points < 2 {
            return Err(CoreError::InvalidParameter {
                name: "points",
                value: points as f64,
                constraint: "need at least 2 per axis",
            });
        }
        let log_axis = |(lo, hi): (f64, f64)| -> Vec<f64> {
            let (llo, lhi) = (lo.log10(), hi.log10());
            (0..points)
                .map(|i| 10f64.powf(llo + (lhi - llo) * i as f64 / (points - 1) as f64))
                .collect()
        };
        let fga_axis = log_axis(fga_range);
        let bga_axis = log_axis(bga_range);
        let mut values = Vec::with_capacity(points);
        for &fga in &fga_axis {
            let mut row = Vec::with_capacity(points);
            for &bga in &bga_axis {
                if bga > fga {
                    row.push(f64::NAN);
                    continue;
                }
                let activity = ActivityVars::new(fga, bga, alpha)?;
                row.push(model.log_energy_ratio(tech_a, tech_b, block, activity));
            }
            values.push(row);
        }
        Ok(TradeoffSurface {
            fga_axis,
            bga_axis,
            values,
        })
    }

    /// The `fga` axis values.
    #[must_use]
    pub fn fga_axis(&self) -> &[f64] {
        &self.fga_axis
    }

    /// The `bga` axis values.
    #[must_use]
    pub fn bga_axis(&self) -> &[f64] {
        &self.bga_axis
    }

    /// The log-ratio at grid indices `(i, j)`.
    #[must_use]
    pub fn value(&self, fga_index: usize, bga_index: usize) -> f64 {
        self.values[fga_index][bga_index]
    }

    /// For a given `fga` row, the interpolated `bga` at which the ratio
    /// crosses zero — one point of the Fig. 10 breakeven contour. `None`
    /// when the row never crosses (always winning or always losing).
    #[must_use]
    pub fn breakeven_bga(&self, fga_index: usize) -> Option<f64> {
        let row = &self.values[fga_index];
        for j in 1..row.len() {
            let (a, b) = (row[j - 1], row[j]);
            if a.is_nan() || b.is_nan() {
                continue;
            }
            if (a <= 0.0 && b > 0.0) || (a > 0.0 && b <= 0.0) {
                // Interpolate in log(bga).
                let (xa, xb) = (self.bga_axis[j - 1].log10(), self.bga_axis[j].log10());
                let t = a / (a - b);
                return Some(10f64.powf(xa + t * (xb - xa)));
            }
        }
        None
    }

    /// The whole breakeven contour as `(fga, bga)` pairs.
    #[must_use]
    pub fn breakeven_contour(&self) -> Vec<(f64, f64)> {
        (0..self.fga_axis.len())
            .filter_map(|i| self.breakeven_bga(i).map(|b| (self.fga_axis[i], b)))
            .collect()
    }
}

/// Places a named application point on the surface (the paper's adder /
/// shifter / multiplier markers).
#[must_use]
pub fn place_point(
    model: &BurstEnergyModel,
    tech_a: &Technology,
    tech_b: &Technology,
    block: &BlockParams,
    name: impl Into<String>,
    activity: ActivityVars,
) -> OperatingPoint {
    let log_ratio = model.log_energy_ratio(tech_a, tech_b, block, activity);
    OperatingPoint {
        name: name.into(),
        activity,
        log_ratio,
        saving: 1.0 - 10f64.powf(log_ratio),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_device::soias::SoiasDevice;
    use lowvolt_device::units::{Hertz, Volts};

    fn setup() -> (BurstEnergyModel, Technology, Technology, BlockParams) {
        // 1 MHz: the paper's Fig. 4 throughput regime, where the low-V_T
        // leakage integrated over the cycle rivals the switching energy —
        // the regime in which Fig. 10's large SOIAS savings arise.
        let model = BurstEnergyModel::new(Volts(1.0), Hertz(1e6)).unwrap();
        let device = SoiasDevice::paper_fig6();
        let soias = Technology::soias(device.clone(), Volts(3.0)).unwrap();
        // The Eq. 3 baseline is the *same* low-V_T device, fixed.
        let soi = Technology::soi_fixed_vt_device(device.front_device(Volts(3.0)));
        (model, soias, soi, BlockParams::adder_8bit().unwrap())
    }

    fn surface() -> TradeoffSurface {
        let (model, soias, soi, block) = setup();
        // 61 points per axis: at this leakage-dominated operating point
        // the breakeven contour hugs the fga → 1 edge, so the grid must
        // be fine enough to land rows inside that strip.
        TradeoffSurface::evaluate(
            &model,
            &soias,
            &soi,
            &block,
            0.5,
            (1e-3, 1.0),
            (1e-4, 1.0),
            61,
        )
        .unwrap()
    }

    #[test]
    fn axes_are_log_spaced_and_bounded() {
        let s = surface();
        assert_eq!(s.fga_axis().len(), 61);
        assert!((s.fga_axis()[0] - 1e-3).abs() < 1e-9);
        assert!((s.fga_axis()[60] - 1.0).abs() < 1e-9);
        let r01 = s.fga_axis()[1] / s.fga_axis()[0];
        let r12 = s.fga_axis()[2] / s.fga_axis()[1];
        assert!((r01 - r12).abs() < 1e-6, "log spacing");
    }

    #[test]
    fn infeasible_cells_are_nan() {
        let s = surface();
        // Smallest fga with largest bga must be infeasible.
        assert!(s.value(0, 60).is_nan());
        // Largest fga, small bga is a real number.
        assert!(s.value(60, 0).is_finite());
    }

    #[test]
    fn corner_signs_match_fig10() {
        let s = surface();
        // Low fga, low bga: SOIAS saves orders of magnitude → negative.
        assert!(s.value(0, 0) < -0.5, "idle corner: {}", s.value(0, 0));
        // fga = 1 (always on): SOIAS cannot win; ratio ~ 0 or positive.
        assert!(s.value(60, 0) > -0.05, "busy corner: {}", s.value(60, 0));
        // High bga at moderate fga: control overhead pushes ratio up
        // relative to the low-bga point of the same row.
        let row = 30;
        let lo_bga = s.value(row, 0);
        let mut hi_bga = f64::NAN;
        for j in (0..61).rev() {
            if s.value(row, j).is_finite() {
                hi_bga = s.value(row, j);
                break;
            }
        }
        assert!(hi_bga > lo_bga, "backgate switching must cost energy");
    }

    #[test]
    fn breakeven_contour_exists_and_is_ordered() {
        let s = surface();
        let contour = s.breakeven_contour();
        assert!(
            !contour.is_empty(),
            "the zero contour must cross the plotted region"
        );
        for &(fga, bga) in &contour {
            assert!(bga <= fga + 1e-9, "contour stays feasible");
        }
    }

    #[test]
    fn x_server_points_show_savings() {
        // The paper's §5.4 bottom points: an X server active 20% of the
        // time gives large SOIAS savings for all three modules.
        let (model, soias, soi, _) = setup();
        let cases = [
            ("adder", BlockParams::adder_8bit().unwrap(), 0.697, 0.023),
            (
                "shifter",
                BlockParams::shifter_8bit().unwrap(),
                0.109,
                0.087,
            ),
            (
                "multiplier",
                BlockParams::multiplier_8x8().unwrap(),
                0.0083,
                0.0083,
            ),
        ];
        let mut savings = Vec::new();
        for (name, block, fga, bga) in cases {
            let activity = ActivityVars::new(fga, bga, 0.5).unwrap();
            let p = place_point(&model, &soias, &soi, &block, name, activity);
            assert!(p.log_ratio < 0.0, "{name} must save energy");
            savings.push((name, p.saving));
        }
        // Ordering: the idler the block, the larger the saving —
        // multiplier > shifter > adder, as in the paper (97/80/43 %).
        assert!(savings[2].1 > savings[1].1, "{savings:?}");
        assert!(savings[1].1 > savings[0].1, "{savings:?}");
        assert!(savings[2].1 > 0.8, "multiplier saving {:?}", savings[2]);
    }

    #[test]
    fn continuous_points_show_little_advantage() {
        // The top set of Fig. 10 points: continuously active processor,
        // modules powered down only between their own uses — "little
        // advantage going to the SOIAS technology".
        let (model, soias, soi, block) = setup();
        let activity = ActivityVars::new(0.697, 0.115, 0.5).unwrap();
        let p = place_point(&model, &soias, &soi, &block, "adder-continuous", activity);
        assert!(
            p.saving < 0.45,
            "continuous-mode saving should be modest: {}",
            p.saving
        );
    }

    #[test]
    fn evaluate_validates_ranges() {
        let (model, soias, soi, block) = setup();
        assert!(TradeoffSurface::evaluate(
            &model,
            &soias,
            &soi,
            &block,
            0.5,
            (0.0, 1.0),
            (1e-4, 1.0),
            10
        )
        .is_err());
        assert!(TradeoffSurface::evaluate(
            &model,
            &soias,
            &soi,
            &block,
            0.5,
            (1e-3, 1.0),
            (1e-4, 1.0),
            1
        )
        .is_err());
    }
}
