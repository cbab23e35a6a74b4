//! Instruction-accurate bursty execution — the §5.4 X-server situation
//! measured on real guest code.
//!
//! The processor "spends more than 95% of its time in the off state":
//! computation arrives in bursts separated by idle stretches. This
//! harness interleaves a guest program's actual instruction stream with
//! idle gaps (no functional-unit use) and profiles the composite, so the
//! system-level `fga`/`bga` the Fig. 10 points need come from measured
//! execution rather than analytic duty scaling — and the two can be
//! cross-checked.

use crate::error::WorkloadError;
use lowvolt_isa::asm::assemble;
use lowvolt_isa::cpu::Cpu;
use lowvolt_isa::inst::Inst;
use lowvolt_isa::profile::{ProfileReport, Profiler};
use lowvolt_obs::{names, span, Recorder};

/// Parameters of a bursty execution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSchedule {
    /// Guest instructions executed per burst.
    pub burst_len: u64,
    /// Idle cycles inserted after each burst.
    pub idle_len: u64,
}

impl BurstSchedule {
    /// A schedule with the given duty cycle at a fixed burst length.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless `0 < duty <= 1`
    /// (NaN is rejected too).
    pub fn with_duty(burst_len: u64, duty: f64) -> Result<BurstSchedule, WorkloadError> {
        if !(duty > 0.0 && duty <= 1.0) {
            return Err(WorkloadError::InvalidParameter {
                name: "duty",
                value: duty,
                constraint: "must lie in (0, 1]",
            });
        }
        let idle_len = (burst_len as f64 * (1.0 - duty) / duty).round() as u64;
        Ok(BurstSchedule {
            burst_len,
            idle_len,
        })
    }

    /// The duty cycle this schedule realises.
    #[must_use]
    pub fn duty(&self) -> f64 {
        self.burst_len as f64 / (self.burst_len + self.idle_len) as f64
    }
}

/// Runs a guest program in bursts, inserting idle cycles between them,
/// and returns the profile over the composite instruction/idle stream.
///
/// Idle cycles are recorded as no-ops: the processor is awake to the
/// profiler's clock but uses no functional block — exactly how a
/// shut-down stretch looks to the activity variables.
///
/// Profiler metrics are flushed to `rec` (`lowvolt_obs::noop()` for
/// none): the whole run is timed under a `profile.run` span and the
/// finished profiler's aggregate counters (`profile.instructions`, unit
/// uses/runs, and the `fga`/`bga` extraction ticks) are flushed once at
/// the end — the per-instruction hot loop never touches the recorder.
///
/// # Errors
///
/// Returns an error string if assembly or execution fails.
pub fn profile_bursty_recorded(
    source: &str,
    schedule: BurstSchedule,
    budget: u64,
    hysteresis: u64,
    rec: &dyn Recorder,
) -> Result<ProfileReport, String> {
    let _timer = span(rec, names::SPAN_PROFILE_RUN);
    let program = assemble(source).map_err(|e| e.to_string())?;
    let mut cpu = Cpu::new(program);
    let mut profiler = Profiler::standard().with_hysteresis(hysteresis);
    let mut since_burst_start = 0u64;
    let mut executed = 0u64;
    while !cpu.halted() {
        if executed >= budget {
            return Err(format!("budget of {budget} instructions exhausted"));
        }
        match cpu.step().map_err(|e| e.to_string())? {
            Some(inst) => {
                profiler.record(&inst);
                executed += 1;
                since_burst_start += 1;
                if since_burst_start >= schedule.burst_len {
                    for _ in 0..schedule.idle_len {
                        profiler.record(&Inst::Nop);
                    }
                    since_burst_start = 0;
                }
            }
            None => break,
        }
    }
    profiler.flush_metrics(rec);
    Ok(profiler.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idea;
    use lowvolt_isa::FunctionalUnit;
    use lowvolt_obs::noop;

    #[test]
    fn schedule_duty_roundtrip() {
        for duty in [1.0, 0.5, 0.2, 0.05] {
            let s = BurstSchedule::with_duty(1000, duty).unwrap();
            assert!(
                (s.duty() - duty).abs() < 0.01,
                "duty {duty} -> {}",
                s.duty()
            );
        }
        let full = BurstSchedule::with_duty(100, 1.0).unwrap();
        assert_eq!(full.idle_len, 0);
    }

    #[test]
    fn zero_duty_rejected() {
        assert!(BurstSchedule::with_duty(100, 0.0).is_err());
        assert!(BurstSchedule::with_duty(100, 1.5).is_err());
        assert!(BurstSchedule::with_duty(100, f64::NAN).is_err());
    }

    #[test]
    fn recorded_bursty_profile_flushes_metrics() {
        use lowvolt_obs::{names, MetricsRegistry};

        let src = idea::program(4);
        let reg = MetricsRegistry::new();
        let report = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(100, 0.5).unwrap(),
            50_000_000,
            1,
            &reg,
        )
        .expect("runs");
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::PROFILE_INSTRUCTIONS), report.total);
        assert!(snap.counter(names::PROFILE_UNIT_USES) > 0);
        assert_eq!(snap.counter(names::PROFILE_EXTRACTIONS_FGA), 3);
        let run = snap
            .span(names::SPAN_PROFILE_RUN)
            .expect("profile.run span");
        assert_eq!(run.count, 1);
    }

    #[test]
    fn duty_scales_measured_fga() {
        // The analytic rule fga_system = duty · fga_active, checked on a
        // real instruction stream.
        let src = idea::program(20);
        let full = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(500, 1.0).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs");
        let fifth = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(500, 0.2).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs");
        for unit in FunctionalUnit::ALL {
            let active = full.unit(unit).fga;
            let bursty = fifth.unit(unit).fga;
            if active > 1e-3 {
                let ratio = bursty / active;
                assert!(
                    (ratio - 0.2).abs() < 0.03,
                    "{unit}: ratio {ratio} should be ~0.2"
                );
            }
        }
    }

    #[test]
    fn idle_gaps_break_runs() {
        // bga scales with duty as well (runs can't span idle gaps), while
        // within-burst structure is preserved.
        let src = idea::program(20);
        let full = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(500, 1.0).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs");
        let fifth = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(500, 0.2).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs");
        let a_full = full.unit(FunctionalUnit::Adder);
        let a_fifth = fifth.unit(FunctionalUnit::Adder);
        let ratio = a_fifth.bga / a_full.bga;
        assert!((ratio - 0.2).abs() < 0.05, "bga ratio = {ratio}");
        assert!(a_fifth.bga <= a_fifth.fga + 1e-12);
    }

    #[test]
    fn agrees_with_markov_trace_model() {
        // The instruction-accurate harness and the xserver Markov trace
        // generator must tell the same duty-scaling story.
        let src = idea::program(20);
        let active = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(500, 1.0).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs")
        .unit(FunctionalUnit::Adder);
        let measured = profile_bursty_recorded(
            &src,
            BurstSchedule::with_duty(2_000, 0.2).unwrap(),
            50_000_000,
            1,
            noop(),
        )
        .expect("runs")
        .unit(FunctionalUnit::Adder);
        let trace = crate::xserver::SessionModel::x_server(active.fga, active.bga)
            .trace(400_000, 7)
            .unwrap();
        assert!(
            (measured.fga - trace.fga()).abs() < 0.05,
            "instruction-accurate {} vs markov {}",
            measured.fga,
            trace.fga()
        );
    }
}
