//! Canonical transform description: the [`TransformSpec`].
//!
//! A `TransformSpec` is the semantic identity of a NUFFT: transform
//! type, mode dimensions, tolerance, working precision, spreading
//! method, mode ordering, and fine-grid sizing policy. It plays three
//! roles at once:
//!
//! 1. **Request API** — the serving layer (`nufft-serve`) accepts a
//!    spec plus data and owns everything else (plan construction,
//!    caching, batching).
//! 2. **Plan-cache key** — the spec implements `Eq + Hash` (tolerance
//!    is compared by its IEEE bit pattern), so two requests share a
//!    cached plan exactly when every semantic field matches.
//! 3. **Plan construction input** — `cufinufft::PlanBuilder::from_spec`
//!    consumes a spec directly, so "what the user asked for" and "what
//!    the plan was built from" are the same value.
//!
//! Performance tuning (bin sizes, `M_sub`, thread counts, shared-memory
//! budget, upsampling factor) is deliberately *not* part of the spec:
//! those knobs live in `cufinufft::Tuning` and default to the paper's
//! values. A spec says *what* to compute, tuning says *how fast*.

use crate::error::{NufftError, Result};
use crate::real::Real;
use crate::smooth::FineSizing;
use crate::TransformType;
use std::hash::{Hash, Hasher};

/// Working precision of a transform, as data rather than a type
/// parameter — what a serving front end needs to route a request to a
/// concretely-typed plan.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    F32,
    F64,
}

impl Precision {
    /// The precision of a concrete scalar type.
    pub fn of<T: Real>() -> Self {
        if T::IS_DOUBLE {
            Precision::F64
        } else {
            Precision::F32
        }
    }

    /// Bytes per real scalar (4 or 8).
    pub fn real_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// Bytes per complex element (interleaved re, im).
    pub fn complex_bytes(self) -> usize {
        2 * self.real_bytes()
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::F64 => "f64",
        })
    }
}

/// Spreading / interpolation method (paper Sec. III). Lives here (not
/// in the GPU crate) because it is part of a transform's semantic
/// identity: the serving layer keys plans on it and the conformance
/// harness sweeps over it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Choose automatically: SM for type 1 when feasible, GM-sort
    /// otherwise (and always for type 2 interpolation).
    Auto,
    /// Input-driven global-memory spreading in user point order (the
    /// CUNFFT-style baseline).
    Gm,
    /// GM plus bin-sorting of the points for coalesced access.
    GmSort,
    /// Shared-memory subproblems with the `M_sub` load-balancing cap
    /// (type 1 only; falls back to GM-sort for interpolation).
    Sm,
}

/// Ordering of the Fourier-mode arrays exchanged with the caller,
/// mirroring the C API's `modeord` option.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum ModeOrder {
    /// Ascending frequency `-N/2 .. N/2-1` (CMCL order; `modeord = 0`).
    #[default]
    Centered,
    /// FFT-style order `0 .. N/2-1, -N/2 .. -1` (`modeord = 1`).
    Fft,
}

/// Canonical description of one NUFFT; see the module docs.
///
/// Construct with [`TransformSpec::type1`] / [`TransformSpec::type2`]
/// and refine fluently:
///
/// ```
/// use nufft_common::spec::{Method, Precision, TransformSpec};
///
/// let spec = TransformSpec::type1(&[64, 64])
///     .eps(1e-5)
///     .precision(Precision::F32)
///     .method(Method::Sm);
/// assert_eq!(spec.dim(), 2);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct TransformSpec {
    /// Transform direction (type 1 or type 2).
    pub ttype: TransformType,
    /// Requested (non-upsampled) mode dimensions, 1 to 3 of them.
    pub modes: Vec<usize>,
    /// Sign of the imaginary unit in the exponential, normalized ±1.
    pub iflag: i32,
    /// Requested tolerance.
    pub eps: f64,
    /// Working precision the transform runs in.
    pub precision: Precision,
    /// Spreading method ([`Method::Auto`] resolves at plan time).
    pub method: Method,
    /// Mode ordering of the coefficient arrays.
    pub modeord: ModeOrder,
    /// Fine-grid sizing policy.
    pub fine_sizing: FineSizing,
}

impl TransformSpec {
    fn new(ttype: TransformType, modes: &[usize]) -> Self {
        TransformSpec {
            ttype,
            modes: modes.to_vec(),
            // the conventional sign: type 1 accumulates with e^{-ikx},
            // type 2 evaluates with e^{+ikx}
            iflag: match ttype {
                TransformType::Type1 => -1,
                TransformType::Type2 => 1,
            },
            eps: 1e-6,
            precision: Precision::F64,
            method: Method::Auto,
            modeord: ModeOrder::default(),
            fine_sizing: FineSizing::default(),
        }
    }

    /// A type-1 (nonuniform to uniform) spec with default tolerance
    /// `1e-6`, `f64`, `Method::Auto`.
    pub fn type1(modes: &[usize]) -> Self {
        Self::new(TransformType::Type1, modes)
    }

    /// A type-2 (uniform to nonuniform) spec with the same defaults.
    pub fn type2(modes: &[usize]) -> Self {
        Self::new(TransformType::Type2, modes)
    }

    /// Requested tolerance (default `1e-6`).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sign of the imaginary unit (normalized to ±1).
    pub fn iflag(mut self, iflag: i32) -> Self {
        self.iflag = if iflag >= 0 { 1 } else { -1 };
        self
    }

    /// Working precision (default [`Precision::F64`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Spreading method (default [`Method::Auto`]).
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Mode ordering (default [`ModeOrder::Centered`]).
    pub fn modeord(mut self, modeord: ModeOrder) -> Self {
        self.modeord = modeord;
        self
    }

    /// Fine-grid sizing policy (default [`FineSizing::Smooth`]).
    pub fn fine_sizing(mut self, sizing: FineSizing) -> Self {
        self.fine_sizing = sizing;
        self
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.modes.len()
    }

    /// Total number of uniform modes.
    pub fn num_modes(&self) -> usize {
        self.modes.iter().product()
    }

    /// Per-transform input length for `m` nonuniform points.
    pub fn input_len(&self, m: usize) -> usize {
        match self.ttype {
            TransformType::Type1 => m,
            TransformType::Type2 => self.num_modes(),
        }
    }

    /// Per-transform output length for `m` nonuniform points.
    pub fn output_len(&self, m: usize) -> usize {
        match self.ttype {
            TransformType::Type1 => self.num_modes(),
            TransformType::Type2 => m,
        }
    }

    /// Reject specs that cannot describe a working transform. The same
    /// checks run again (with more context) at plan-build time; running
    /// them here lets a front end refuse bad requests before queueing.
    pub fn validate(&self) -> Result<()> {
        if self.modes.is_empty() || self.modes.len() > 3 {
            return Err(NufftError::BadSpec(format!(
                "spec has {} mode dimensions, supported range is 1..=3",
                self.modes.len()
            )));
        }
        if self.modes.contains(&0) {
            return Err(NufftError::BadSpec(
                "spec has a zero-size mode dimension".into(),
            ));
        }
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(NufftError::BadSpec(format!(
                "spec tolerance must be finite and positive, got {}",
                self.eps
            )));
        }
        if self.iflag != 1 && self.iflag != -1 {
            return Err(NufftError::BadSpec(format!(
                "spec iflag must be +1 or -1, got {}",
                self.iflag
            )));
        }
        Ok(())
    }

    /// `true` when the concrete scalar `T` matches `self.precision`.
    pub fn matches_precision<T: Real>(&self) -> bool {
        self.precision == Precision::of::<T>()
    }

    /// Short human-readable label (`t1 64x64 f32 eps=1e-5 Auto`), used
    /// in traces and error messages.
    pub fn label(&self) -> String {
        let dims: Vec<String> = self.modes.iter().map(|n| n.to_string()).collect();
        format!(
            "{} {} {} eps={:.0e} {:?}",
            match self.ttype {
                TransformType::Type1 => "t1",
                TransformType::Type2 => "t2",
            },
            dims.join("x"),
            self.precision,
            self.eps,
            self.method,
        )
    }
}

// Tolerance is compared by bit pattern so the spec can key a hash map.
// Two NaN tolerances compare equal under this rule, but `validate`
// rejects them before any cache ever sees one.
impl PartialEq for TransformSpec {
    fn eq(&self, other: &Self) -> bool {
        self.ttype == other.ttype
            && self.modes == other.modes
            && self.iflag == other.iflag
            && self.eps.to_bits() == other.eps.to_bits()
            && self.precision == other.precision
            && self.method == other.method
            && self.modeord == other.modeord
            && self.fine_sizing == other.fine_sizing
    }
}

impl Eq for TransformSpec {}

impl Hash for TransformSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ttype.hash(state);
        self.modes.hash(state);
        self.iflag.hash(state);
        self.eps.to_bits().hash(state);
        self.precision.hash(state);
        self.method.hash(state);
        self.modeord.hash(state);
        self.fine_sizing.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(spec: &TransformSpec) -> u64 {
        let mut h = DefaultHasher::new();
        spec.hash(&mut h);
        h.finish()
    }

    #[test]
    fn defaults_follow_transform_type() {
        let t1 = TransformSpec::type1(&[32, 32]);
        let t2 = TransformSpec::type2(&[32, 32]);
        assert_eq!(t1.iflag, -1);
        assert_eq!(t2.iflag, 1);
        assert_eq!(t1.eps, 1e-6);
        assert_eq!(t1.precision, Precision::F64);
    }

    #[test]
    fn every_field_distinguishes_specs() {
        let base = TransformSpec::type1(&[32, 32]);
        let variants = [
            TransformSpec::type2(&[32, 32]),
            TransformSpec::type1(&[32, 64]),
            TransformSpec::type1(&[32, 32]).eps(1e-7),
            TransformSpec::type1(&[32, 32]).iflag(1),
            TransformSpec::type1(&[32, 32]).precision(Precision::F32),
            TransformSpec::type1(&[32, 32]).method(Method::Gm),
            TransformSpec::type1(&[32, 32]).modeord(ModeOrder::Fft),
            TransformSpec::type1(&[32, 32]).fine_sizing(FineSizing::Exact),
        ];
        for v in &variants {
            assert_ne!(&base, v, "{v:?} should differ from base");
            assert_ne!(hash_of(&base), hash_of(v), "{v:?} hash collides");
        }
        assert_eq!(base, TransformSpec::type1(&[32, 32]));
        assert_eq!(hash_of(&base), hash_of(&TransformSpec::type1(&[32, 32])));
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(matches!(
            TransformSpec::type1(&[]).validate(),
            Err(NufftError::BadSpec(_))
        ));
        assert!(matches!(
            TransformSpec::type1(&[8, 8, 8, 8]).validate(),
            Err(NufftError::BadSpec(_))
        ));
        assert!(matches!(
            TransformSpec::type1(&[8, 0]).validate(),
            Err(NufftError::BadSpec(_))
        ));
        assert!(matches!(
            TransformSpec::type1(&[8, 8]).eps(0.0).validate(),
            Err(NufftError::BadSpec(_))
        ));
        assert!(matches!(
            TransformSpec::type1(&[8, 8]).eps(f64::NAN).validate(),
            Err(NufftError::BadSpec(_))
        ));
        assert!(TransformSpec::type1(&[8, 8]).validate().is_ok());
    }

    #[test]
    fn precision_matching() {
        let spec = TransformSpec::type1(&[8]).precision(Precision::F32);
        assert!(spec.matches_precision::<f32>());
        assert!(!spec.matches_precision::<f64>());
        assert_eq!(Precision::of::<f64>(), Precision::F64);
        assert_eq!(Precision::F32.real_bytes(), 4);
        assert_eq!(Precision::F64.complex_bytes(), 16);
    }

    #[test]
    fn lengths_by_type() {
        let t1 = TransformSpec::type1(&[4, 6]);
        assert_eq!(t1.input_len(100), 100);
        assert_eq!(t1.output_len(100), 24);
        let t2 = TransformSpec::type2(&[4, 6]);
        assert_eq!(t2.input_len(100), 24);
        assert_eq!(t2.output_len(100), 100);
    }

    #[test]
    fn label_is_readable() {
        let s = TransformSpec::type1(&[64, 64])
            .eps(1e-5)
            .precision(Precision::F32)
            .label();
        assert!(
            s.contains("t1") && s.contains("64x64") && s.contains("f32"),
            "{s}"
        );
    }
}
