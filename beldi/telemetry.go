package beldi

// This file is the public face of the unified telemetry layer
// (internal/telemetry): one hub per deployment that collects (1) crash-
// surviving causal traces — every step, call, lock wait, transaction phase
// and queue hop an intent performs, with replayed operations tagged, so a
// workflow that crashed and was restarted by the collector reads as ONE
// trace with its pre-crash attempt marked — and (2) a metrics registry that
// unifies every subsystem's counters (core, store, WAL, queue, platform)
// under hierarchical names next to latency histograms on the hot
// paths (step commit, lock acquire, txn commit, enqueue→receive, WAL
// fsync). Serve it over HTTP with telemetry.Serve / telemetry.Handler, or
// snapshot it in-process; see OPERATIONS.md "Observability".

import (
	"repro/internal/dynamo"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/telemetry"
	"repro/internal/walstore"
)

// Telemetry is a deployment's observability hub: a span tracer plus a
// metrics registry. Create one with NewTelemetry, pass it in
// DeploymentOptions.Telemetry, and every runtime the deployment builds
// reports into it. A nil hub disables telemetry with near-zero overhead.
type Telemetry = telemetry.Hub

// NewTelemetry creates an empty hub with the default span capacity.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Telemetry returns the deployment's hub, nil when telemetry is off.
func (d *Deployment) Telemetry() *Telemetry { return d.opts.Telemetry }

// attachInfra registers the deployment's shared infrastructure — store,
// platform, and (for WAL-backed stores) fsync latency — on the hub.
// Idempotent: Register replaces same-prefix sources, so multiple
// deployments over one hub keep the latest wiring.
func (d *Deployment) attachInfra() {
	h := d.opts.Telemetry
	if h == nil {
		return
	}
	inner := d.opts.Store
	if p, ok := inner.(*pipeline.Store); ok {
		h.Registry.Register("pipeline", func() any { return p.Snapshot() })
		p.SetHistograms(
			h.Registry.Histogram("pipeline.depth"),
			h.Registry.Histogram("pipeline.batch"),
			h.Registry.Histogram("pipeline.lag"),
		)
		// The substrate registrations below describe the durable base, not
		// the zero-latency shadow.
		inner = p.Base()
	}
	if s, ok := inner.(interface{ Metrics() *dynamo.Metrics }); ok {
		m := s.Metrics()
		h.Registry.Register("store", func() any { return m.Snapshot() })
	}
	if rc, ok := inner.(*remote.Client); ok {
		stats := rc.Stats()
		h.Registry.Register("remote.rpc", func() any { return stats.Snapshot() })
		rc.SetRPCHistogram(h.Registry.Histogram("remote.rpc_latency"))
	}
	if ws, ok := inner.(*walstore.Store); ok {
		st := ws.WAL()
		h.Registry.Register("wal", func() any { return st.Snapshot() })
		ws.SetFsyncHistogram(h.Registry.Histogram("wal.fsync"))
	}
	if d.opts.Platform != nil {
		m := d.opts.Platform.Metrics()
		h.Registry.Register("platform", func() any { return m.Snapshot() })
	}
}
