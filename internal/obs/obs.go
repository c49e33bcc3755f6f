// Package obs is the repo's dependency-free telemetry layer: a
// Prometheus-text metric registry (counters, gauges, log-bucketed
// histograms), phase-attributed span trees with W3C trace context, a
// per-iteration recorder that writes a solve's convergence trajectory
// onto its solve span through the solver Monitor hook, and a bounded
// ring of recent span trees for live inspection.
//
// The paper's headline results are per-iteration phenomena — early
// termination cutting vector slices (§IV-B), AN-code corrections
// (§IV-E), ADC headstart savings (§V-B2) — so a traced solve span holds
// one sample per solver iteration: the residual annotated with the
// hardware work that step cost. Everything in this package is plain
// stdlib so it can sit below core, accel, solver and serve without
// import cycles.
package obs
