// Package obs is the engine-wide observability subsystem: one recorder with
// one catalog, virtual-time span tracing, a sampler, and exporters.
//
// The paper's central empirical move is *observing* the I/O pipeline — §2
// profiles the device queue depth during a parallel index scan to show that
// "a queue depth of n is clearly observable". This package generalises that
// single signal to the whole stack:
//
//   - The catalog (catalog.go) lists every instrument and every event type
//     the engine records. Its Metric and EventType values can be minted
//     nowhere else, and each event row names the counters it feeds.
//
//   - The Registry (metrics.go) is the one recorder every layer is handed:
//     counters, gauges and fixed-bucket histograms, plus an optional event
//     ring (event.go). A decision is recorded by one Emit, which writes the
//     ring when it is on and always bumps the row's counters, so a counter
//     and the events behind it cannot disagree. Gauges integrate over
//     virtual time, so a snapshot diff between two instants yields exact
//     time-weighted means — the mean device queue depth of a single query,
//     for example. Counters are cumulative and never reset; per-query
//     attribution is always a diff of two snapshots.
//
//   - Spans (span.go) form a hierarchical virtual-time trace of one or more
//     query executions: query → optimize → operator → worker → I/O batch.
//     Each span carries attributes (plan chosen, degree, pages read, cache
//     hits, CPU vs I/O wait split) and renders as a compact text tree
//     (EXPLAIN ANALYZE) or as Chrome trace_event JSON loadable in
//     chrome://tracing and Perfetto (chrome.go).
//
//   - The sampler (sampler.go) periodically reads any instantaneous value
//     into a time series; the §2 queue-depth profile is one.
//
// Everything runs against sim.Env's clock: the subsystem observes virtual
// time, not host time, so traces, metrics and event logs are
// bit-reproducible across runs with the same seed.
package obs
