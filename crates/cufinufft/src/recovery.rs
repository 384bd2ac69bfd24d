//! Graceful degradation under device faults.
//!
//! cuFINUFFT's production posture (ROADMAP north star) is that a
//! transform request should survive the failures a busy shared GPU
//! actually produces: transient transfer or launch glitches, memory
//! pressure from co-tenant plans, and configurations where the SM
//! spreader does not fit. The [`RecoveryPolicy`] on
//! [`GpuOpts`] drives three behaviors in the plan
//! pipeline:
//!
//! 1. **Method fallback** — an explicit [`Method::Sm`](crate::Method)
//!    request that exceeds the shared-memory budget falls back to
//!    GM-sort (what `Auto` would have picked) instead of erroring, when
//!    `allow_method_fallback` is set.
//! 2. **Chunk shrinking** — `execute_many` responds to a device OOM in
//!    its staging allocations by halving the batch chunk (down to
//!    `min_chunk`) and re-planning the buffers, so a batch that fits
//!    memory at B=1 always completes.
//! 3. **Bounded retry** — transient memcpy/launch faults are retried up
//!    to `max_retries` times with linear backoff in *simulated* time.
//!
//! Every recovery action is mirrored into the plan's `nufft-trace`
//! session (`recovery.*` counters) and accumulated in the
//! [`RecoveryReport`] returned by `Plan::recovery_report()`.

use crate::opts::{resolve_spread_method, GpuOpts, Method};
use gpu_sim::{Device, DeviceFault, FaultKind, Trace};
use nufft_common::error::{NufftError, Result};

/// Knobs for the plan pipeline's fault recovery; set via
/// [`GpuOpts::recovery`](crate::GpuOpts) or `PlanBuilder::recovery`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries per transient device fault before giving up (0 = fail on
    /// the first fault).
    pub max_retries: u32,
    /// Simulated seconds of backoff charged before retry `k` (scaled
    /// linearly: `k * backoff`). Must be finite and non-negative.
    pub backoff: f64,
    /// Fall back from an infeasible explicit `Method::Sm` to GM-sort
    /// instead of returning `MethodUnavailable`.
    pub allow_method_fallback: bool,
    /// Floor for OOM-driven batch-chunk halving in `execute_many`;
    /// 0 disables shrinking (OOM surfaces as `DeviceOom`).
    pub min_chunk: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: 1e-6,
            allow_method_fallback: false,
            min_chunk: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Fail-fast policy: no retries, no fallback, no shrinking — every
    /// fault surfaces immediately as a typed error (the pre-recovery
    /// behavior, useful for tests and strict callers).
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff: 0.0,
            allow_method_fallback: false,
            min_chunk: 0,
        }
    }

    /// Check the policy's fields are usable (finite, non-negative
    /// backoff). Run implicitly at plan build; callers holding a policy
    /// long before building (e.g. a server config) can check eagerly.
    pub fn validate(&self) -> Result<()> {
        if !(self.backoff.is_finite() && self.backoff >= 0.0) {
            return Err(NufftError::BadOptions(format!(
                "recovery backoff must be finite and non-negative, got {}",
                self.backoff
            )));
        }
        Ok(())
    }
}

/// What the recovery layer did during a plan's lifetime so far;
/// returned by `Plan::recovery_report()`. Counts accumulate across
/// `set_pts`/`execute` calls on the same plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Infeasible-SM requests downgraded to GM-sort.
    pub method_fallbacks: u32,
    /// Individual retry attempts issued for transient faults.
    pub retries: u32,
    /// Operations that ultimately succeeded after at least one retry.
    pub recovered: u32,
    /// Operations abandoned after exhausting retries (each corresponds
    /// to a returned `DeviceFault`/`DeviceOom` error).
    pub unrecovered: u32,
    /// Times `execute_many` halved its batch chunk in response to OOM.
    pub chunk_shrinks: u32,
    /// The chunk size after the most recent shrink (None = never shrunk).
    pub final_chunk: Option<usize>,
    /// Human-readable log of every recovery action, in order.
    pub events: Vec<String>,
}

impl RecoveryReport {
    /// True when no fault was ever observed by this plan.
    pub fn is_clean(&self) -> bool {
        self == &RecoveryReport::default()
    }
}

/// Resolve the spreading method of a plan with kernel width `w` under
/// the Remark-2 shared-memory `budget` (see [`resolve_spread_method`]).
/// An explicit SM request that does not fit degrades to GM-sort, the
/// method `Auto` would use, when the policy allows it; the fallback is
/// logged in `rec` and counted as `recovery.fallbacks`.
pub(crate) fn resolve_method_with_fallback(
    opts: &GpuOpts,
    budget: usize,
    bin_size: [usize; 3],
    dim: usize,
    w: usize,
    complex_bytes: usize,
    rec: &mut RecoveryReport,
) -> Result<Method> {
    match resolve_spread_method(opts.method, bin_size, dim, w, complex_bytes, budget) {
        Err(e @ NufftError::MethodUnavailable(_)) if opts.recovery.allow_method_fallback => {
            rec.method_fallbacks += 1;
            rec.events.push(format!("method fallback to GM-sort: {e}"));
            if let Some(t) = &opts.trace {
                t.counter("recovery.fallbacks").inc();
            }
            Ok(Method::GmSort)
        }
        r => r,
    }
}

/// Map an unrecovered device fault to the library error space: OOM
/// keeps its dedicated variant (so chunk-shrinking and callers can
/// match on it), everything else becomes `DeviceFault`.
pub(crate) fn fault_error(f: &DeviceFault, attempts: u32) -> NufftError {
    match f.kind {
        FaultKind::Oom {
            requested,
            available,
        } => NufftError::DeviceOom {
            requested,
            available,
        },
        _ => NufftError::DeviceFault {
            op: f.op.clone(),
            attempts,
            persistent: !f.transient,
        },
    }
}

/// Run `f`, retrying transient device faults up to `policy.max_retries`
/// times with linear backoff in simulated time. Persistent faults and
/// exhausted retries surface as typed errors; outcomes are recorded in
/// `rec` and the `recovery.*` trace counters.
pub(crate) fn with_retry<R>(
    dev: &Device,
    policy: &RecoveryPolicy,
    trace: Option<&Trace>,
    rec: &mut RecoveryReport,
    what: &str,
    mut f: impl FnMut() -> std::result::Result<R, DeviceFault>,
) -> Result<R> {
    let mut attempt: u32 = 0;
    loop {
        match f() {
            Ok(r) => {
                if attempt > 0 {
                    rec.recovered += 1;
                    rec.events
                        .push(format!("recovered '{what}' after {attempt} retry(s)"));
                    if let Some(t) = trace {
                        t.counter("recovery.recovered").inc();
                    }
                }
                return Ok(r);
            }
            Err(fault) => {
                if !fault.transient || attempt >= policy.max_retries {
                    rec.unrecovered += 1;
                    rec.events.push(format!(
                        "gave up on '{what}' after {} attempt(s): {fault}",
                        attempt + 1
                    ));
                    if let Some(t) = trace {
                        t.counter("recovery.unrecovered").inc();
                    }
                    return Err(fault_error(&fault, attempt + 1));
                }
                attempt += 1;
                rec.retries += 1;
                rec.events.push(format!(
                    "retry {attempt}/{} for '{what}': {fault}",
                    policy.max_retries
                ));
                if let Some(t) = trace {
                    t.counter("recovery.retries").inc();
                }
                if policy.backoff > 0.0 {
                    dev.advance("recovery.backoff", policy.backoff * attempt as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultKind;

    fn transient(op: &str) -> DeviceFault {
        DeviceFault {
            op: op.into(),
            kind: FaultKind::Memcpy,
            transient: true,
        }
    }

    #[test]
    fn retry_recovers_transient_fault() {
        let dev = Device::v100();
        let policy = RecoveryPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut calls = 0;
        let r = with_retry(&dev, &policy, None, &mut rec, "op", || {
            calls += 1;
            if calls < 3 {
                Err(transient("op"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.recovered, 1);
        assert_eq!(rec.unrecovered, 0);
        assert!(!rec.is_clean());
    }

    #[test]
    fn retry_budget_is_bounded() {
        let dev = Device::v100();
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let r: Result<()> = with_retry(&dev, &policy, None, &mut rec, "op", || {
            calls += 1;
            Err(transient("op"))
        });
        assert_eq!(calls, 3, "initial attempt + 2 retries");
        assert!(matches!(
            r,
            Err(NufftError::DeviceFault { attempts: 3, .. })
        ));
        assert_eq!(rec.unrecovered, 1);
    }

    #[test]
    fn persistent_fault_fails_immediately() {
        let dev = Device::v100();
        let policy = RecoveryPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let r: Result<()> = with_retry(&dev, &policy, None, &mut rec, "op", || {
            calls += 1;
            Err(DeviceFault {
                op: "op".into(),
                kind: FaultKind::KernelLaunch,
                transient: false,
            })
        });
        assert_eq!(calls, 1, "persistent faults are not retried");
        assert!(r.is_err());
    }

    #[test]
    fn oom_kind_maps_to_device_oom() {
        let f = DeviceFault {
            op: "alloc:x".into(),
            kind: FaultKind::Oom {
                requested: 100,
                available: 10,
            },
            transient: false,
        };
        assert_eq!(
            fault_error(&f, 1),
            NufftError::DeviceOom {
                requested: 100,
                available: 10
            }
        );
    }

    #[test]
    fn backoff_advances_simulated_time() {
        let dev = Device::v100();
        let policy = RecoveryPolicy {
            max_retries: 1,
            backoff: 0.25,
            ..RecoveryPolicy::default()
        };
        let mut rec = RecoveryReport::default();
        let mut calls = 0;
        let c0 = dev.clock();
        let _ = with_retry(&dev, &policy, None, &mut rec, "op", || {
            calls += 1;
            if calls < 2 {
                Err(transient("op"))
            } else {
                Ok(())
            }
        });
        assert!(dev.clock() - c0 >= 0.25, "backoff charged to the clock");
    }

    #[test]
    fn none_policy_disables_everything() {
        let p = RecoveryPolicy::none();
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.min_chunk, 0);
        assert!(!p.allow_method_fallback);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_backoff() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let p = RecoveryPolicy {
                backoff: bad,
                ..RecoveryPolicy::default()
            };
            assert!(p.validate().is_err(), "backoff {bad} accepted");
        }
    }
}
