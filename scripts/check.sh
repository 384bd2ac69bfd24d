#!/usr/bin/env bash
# Pre-merge gate: formatting, lints (deny warnings), and the test suite.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test -q"
cargo test -q

echo "== cargo test -q --test fault_injection (chaos suite)"
cargo test -q --test fault_injection

# Serving layer (DESIGN.md §5i): cache/coalescing/backpressure suite
# runs in the workspace pass above; SERVE=full adds the randomized
# multi-client stress sweep (every result verified against a direct
# single-plan execution).
if [[ "${SERVE:-quick}" == "full" ]]; then
  echo "== SERVE=full randomized multi-client serve sweep"
  SERVE=full cargo test -q -p nufft-serve --test serve \
    randomized_multi_client_sweep -- --nocapture
else
  echo "== serve suite ran in the workspace pass (SERVE=full for the stress sweep)"
fi

# Static kernel verification (DESIGN.md §5m): the symbolic access-plan
# checker proves every shipped kernel bounds-safe, race-class-clean,
# contract-consistent, and launch-feasible over the quick spec matrix,
# then the source-policy scanner runs against scripts/lint-allow.txt.
# Any error-level finding fails the build. LINT=full widens the plan
# matrix (1D, full eps ladder, M_sub/bin sweeps, large M).
if [[ "${LINT:-quick}" == "full" ]]; then
  echo "== LINT=full static verifier (widened plan matrix + source lints)"
  cargo run -q -p nufft-lint -- --full
else
  echo "== static verifier, quick tier (LINT=full for the widened matrix)"
  cargo run -q -p nufft-lint
fi

# Race / access-contract checking (DESIGN.md §5h): every shipped
# spread/interp/bin kernel must trace clean, the deliberately racy
# variant must be flagged. HAZARD=full widens to 3D and f64.
if [[ "${HAZARD:-quick}" == "full" ]]; then
  echo "== HAZARD=full race-detector suite (3D + f64 sweep)"
  HAZARD=full cargo test -q --test hazard
else
  echo "== race-detector suite (quick tier; HAZARD=full for the sweep)"
  cargo test -q --test hazard
fi

# Parallel block execution (DESIGN.md §5l): the simulator's host thread
# pool must be bitwise-invisible. The fixed serial-vs-parallel matrix
# (gpu-sim unit tests + full-plan par_equiv) runs in the workspace pass
# above and again here explicitly; PAR=full widens par_equiv to the
# multi-seed, all-methods sweep.
if [[ "${PAR:-quick}" == "full" ]]; then
  echo "== PAR=full multi-seed parallel-equivalence sweep"
  PAR=full cargo test -q -p cufinufft --test par_equiv
else
  echo "== parallel-equivalence matrix (quick tier; PAR=full for the sweep)"
  cargo test -q -p cufinufft --test par_equiv
fi

# Accuracy conformance matrix vs the direct-NUDFT oracle (DESIGN.md §5g).
# Quick tier (288 cells) by default; CONFORMANCE=full runs the whole
# 3040-cell sweep (clustered points, odd-composite/non-square/prime
# grids, denser tolerance ladder) — ~2 min in release.
if [[ "${CONFORMANCE:-quick}" == "full" ]]; then
  echo "== CONFORMANCE=full conformance matrix (release)"
  CONFORMANCE=full cargo test -q --release -p nufft-conformance --test conformance \
    emit_conformance_json -- --nocapture
else
  echo "== conformance matrix, quick tier (release)"
  cargo test -q --release -p nufft-conformance --test conformance \
    emit_conformance_json -- --nocapture
fi

# Committed results vs their harnesses: the SM and sigma ablations, the
# Fig. 2 and Fig. 3 harnesses and the batched-execution table report
# simulated V100 time and seeded errors, which are deterministic, so
# rerunning them must rewrite their CSVs under results/ byte for byte.
# RESULTS=1 reruns them and fails on any difference (about 5.5 min on 2
# cores with a warm build).
RESULT_BENCHES=(ablation_bins ablation_msub ablation_interp_sm ablation_sigma fig2_spread fig3_interp batch_overlap)
if [[ "${RESULTS:-0}" != "0" ]]; then
  echo "== RESULTS=1 regenerate simulated-time CSVs and diff against the committed files"
  csvs=()
  for b in "${RESULT_BENCHES[@]}"; do
    cargo bench -q -p bench --bench "$b" > /dev/null
    csvs+=("results/$b.csv")
  done
  git diff --exit-code -- "${csvs[@]}"
else
  echo "== results CSV check skipped (RESULTS=1 to regenerate and diff ${RESULT_BENCHES[*]})"
fi

if [[ "${CHAOS:-0}" != "0" ]]; then
  echo "== CHAOS=1 randomized probabilistic-fault sweep"
  CHAOS=1 cargo test -q --test fault_injection chaos_randomized -- --nocapture
fi

# Serve-layer chaos acceptance (DESIGN.md §5k): overload + persistent
# faults against the breaker/shed/supervision stack. The single-seed
# smoke runs in the workspace pass above; SERVE_CHAOS=1 widens the
# acceptance scenario to a multi-seed sweep.
if [[ "${SERVE_CHAOS:-0}" != "0" ]]; then
  echo "== SERVE_CHAOS=1 multi-seed serve chaos sweep"
  SERVE_CHAOS=1 cargo test -q -p nufft-serve --test chaos_serve -- --nocapture
else
  echo "== serve chaos smoke ran in the workspace pass (SERVE_CHAOS=1 for the multi-seed sweep)"
fi

# Wall-clock bench trajectory (DESIGN.md §5j, ROADMAP item 3): produce a
# results/bench/BENCH_<date>.json, validate it against the nufft-bench/v1
# schema, and compare against the latest prior trajectory point.
# Advisory by default; BENCH=strict fails on >15% regressions AND when
# no prior report exists (a missing prior means the tracked trajectory
# is broken, not legitimately starting over).
if [[ "${BENCH:-0}" != "0" ]]; then
  echo "== BENCH=${BENCH} bench-smoke trajectory point"
  if [[ "${BENCH}" == "strict" ]]; then
    BENCH_STRICT=1 cargo bench -q -p bench --bench bench_smoke
  else
    cargo bench -q -p bench --bench bench_smoke
  fi
else
  echo "== bench-smoke skipped (BENCH=1 to record a trajectory point, BENCH=strict to gate)"
fi

echo "All checks passed."
