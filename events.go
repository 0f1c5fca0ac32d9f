package pioqo

import (
	"fmt"
	"io"
	"time"
)

// The engine event log is a bounded, virtual-time-stamped record of every
// resource-governance and fault-handling decision the engine makes:
// admission grants and waits, re-brokered budgets, degraded-supply
// shrinkage, lease releases and credit reclamation, worker starts and
// exits, read retries and backoffs, injected faults, buffer-frame
// uninstalls, and plan-cache hits. Events live in a fixed-capacity ring —
// old entries are overwritten, never allocated around — and every record is
// typed: the event name and both operand names come from the catalog in
// internal/obs, so there are no free-form strings at emit sites. The ring
// belongs to the engine's metrics registry, and each decision is recorded
// once: the same call writes the event and bumps the counters it feeds.
//
// Emission is pure ring mutation in host memory: it schedules no simulator
// events, draws no randomness, and allocates nothing, so an instrumented
// run is byte-identical to an uninstrumented one, and two runs of the same
// seeded workload produce byte-identical JSONL exports. With the log
// disabled (the default) an emit site only bumps its counters.

// EngineEvent is one retained event-log record, decoded against the
// catalog: Name identifies the event type, AName/BName label the two
// integer operands (empty when the type carries fewer than two).
type EngineEvent struct {
	// Seq is the emission sequence number, dense from 0 at EnableEventLog:
	// the first retained event's Seq is how many the ring has overwritten.
	Seq uint64
	// At is the virtual time of the decision.
	At time.Duration
	// Name is the catalog event name, e.g. "admission.grant".
	Name string
	// Query is the engine-assigned query id the event is attributed to, or
	// -1 for device- and system-level events.
	Query int64
	// A and B are the typed operands; AName and BName label them.
	A, B         int64
	AName, BName string
}

// EnableEventLog turns on the engine event log with the given ring
// capacity (0 or negative takes the default, 4096 events). All engine
// layers — broker, executor, fault injector, buffer pool, plan cache —
// record into the one registry, whose ring this switches on. Called again,
// it replaces the ring with an empty one whose Seq restarts at 0; metric
// counters are not reset. Enabling or exporting the log never perturbs
// execution: runs stay byte-identical either way.
func (s *System) EnableEventLog(capacity int) { s.reg.EnableEvents(capacity) }

// EngineEvents returns the retained events, oldest first, decoded against
// the catalog. Nil when the log is disabled.
func (s *System) EngineEvents() []EngineEvent {
	l := s.reg.Log()
	if l == nil {
		return nil
	}
	evs := l.Events()
	out := make([]EngineEvent, len(evs))
	for i, e := range evs {
		name, aName, bName := e.Type.Describe()
		out[i] = EngineEvent{
			Seq:   e.Seq,
			At:    time.Duration(e.At),
			Name:  name,
			Query: e.Query,
			A:     e.A,
			B:     e.B,
			AName: aName,
			BName: bName,
		}
	}
	return out
}

// WriteEventLog exports the retained events as JSONL, one event per line
// with a fixed field order, oldest first. Two runs of the same seeded
// workload export byte-identical logs.
func (s *System) WriteEventLog(w io.Writer) error {
	l := s.reg.Log()
	if l == nil {
		return fmt.Errorf("pioqo: event log disabled; call EnableEventLog first")
	}
	return l.WriteJSONL(w)
}
