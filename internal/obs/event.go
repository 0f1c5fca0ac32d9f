package obs

import (
	"bufio"
	"io"
	"strconv"

	"pioqo/internal/sim"
)

// The engine's structured decision log: a bounded, virtual-time-stamped
// ring of typed events recording every load-bearing choice the engine makes
// — admission grants and re-brokered budgets, lease degradation, fault
// injections, executor retries and backoff, worker lifecycle, buffer-frame
// uninstalls, plan-cache hits and misses.
//
// The ring is strictly an observer. Recording mutates a preallocated ring
// and nothing else: it schedules no simulation events, draws no randomness,
// and allocates no memory, so an instrumented run is byte-identical to an
// uninstrumented one and two same-seed runs produce byte-identical JSONL
// exports.
//
// Events carry a typed schema, not strings: an EventType from the catalog,
// the owning query's id (or NoQuery), and two int64 operands whose meaning
// the catalog names per type. WriteJSONL looks the names up in the catalog,
// so emit sites stay allocation-free and the schema lives in one place.

// NoQuery marks an event not attributable to a single query (device-level
// faults, buffer-pool housekeeping, plan-cache traffic).
const NoQuery int64 = -1

// Event is one recorded engine decision. A and B are the per-type operands
// named by the catalog row for Type.
type Event struct {
	Seq   uint64   // emission sequence number, dense from 0
	At    sim.Time // virtual timestamp
	Type  EventType
	Query int64 // owning query id, or NoQuery
	A, B  int64
}

// defaultEventCapacity is the ring size EnableEvents uses when given a
// non-positive capacity: large enough to hold every event of the
// experiment workloads, small enough to stay cache-resident.
const defaultEventCapacity = 4096

// EventLog is a registry's bounded event ring. It overwrites its oldest
// events once full, so the memory bound holds for arbitrarily long runs
// (the oldest retained event's Seq is the overwritten count). Every method
// is nil-safe: a nil *EventLog is the ring switched off.
type EventLog struct {
	env *sim.Env
	buf []Event
	n   uint64 // total events recorded since the ring was switched on
}

// EnableEvents switches the registry's event ring on with room for
// capacity events (defaultEventCapacity when capacity <= 0), replacing any
// ring already on with an empty one whose Seq restarts at 0.
func (r *Registry) EnableEvents(capacity int) {
	if capacity <= 0 {
		capacity = defaultEventCapacity
	}
	r.log = &EventLog{env: r.env, buf: make([]Event, capacity)}
}

// Log returns the event ring, nil while it is off. Nil-safe.
func (r *Registry) Log() *EventLog {
	if r == nil {
		return nil
	}
	return r.log
}

// record writes one event into the ring.
func (l *EventLog) record(t EventType, query, a, b int64) {
	if l == nil {
		return
	}
	l.buf[l.n%uint64(len(l.buf))] = Event{
		Seq: l.n, At: l.env.Now(), Type: t, Query: query, A: a, B: b,
	}
	l.n++
}

// Total reports how many events have been recorded since the ring was
// switched on, including any it has since overwritten.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.n
}

// Len reports how many events the ring currently retains.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	if l.n < uint64(len(l.buf)) {
		return int(l.n)
	}
	return len(l.buf)
}

// Events returns the retained events oldest-first, as a fresh copy (nil
// when none are retained).
func (l *EventLog) Events() []Event {
	n := l.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := l.n - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, l.buf[(start+i)%uint64(len(l.buf))])
	}
	return out
}

// appendJSON renders the event as one JSON object with a fixed field
// order — seq, at_ns, event, query, then the catalog-named operands — so
// exports are byte-identical across runs. Operand fields with an empty
// catalog name are omitted; query is omitted for NoQuery events.
func (e Event) appendJSON(buf []byte) []byte {
	name, a, b := e.Type.Describe()
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"at_ns":`...)
	buf = strconv.AppendInt(buf, int64(e.At), 10)
	buf = append(buf, `,"event":"`...)
	buf = append(buf, name...)
	buf = append(buf, '"')
	if e.Query != NoQuery {
		buf = append(buf, `,"query":`...)
		buf = strconv.AppendInt(buf, e.Query, 10)
	}
	if a != "" {
		buf = append(buf, `,"`...)
		buf = append(buf, a...)
		buf = append(buf, `":`...)
		buf = strconv.AppendInt(buf, e.A, 10)
	}
	if b != "" {
		buf = append(buf, `,"`...)
		buf = append(buf, b...)
		buf = append(buf, `":`...)
		buf = strconv.AppendInt(buf, e.B, 10)
	}
	return append(buf, '}')
}

// WriteJSONL exports the retained events oldest-first as JSON Lines. The
// rendering is fully deterministic — fixed field order, integer-only
// values — so two same-seed runs export byte-identical logs. A nil ring
// writes nothing.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, e := range l.Events() {
		line = e.appendJSON(line[:0])
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
