package pioqo

import (
	"fmt"
	"time"
)

// ConcurrentResult reports a batch of queries executed together.
type ConcurrentResult struct {
	// Results holds one entry per query, in input order; each Runtime is
	// that query's submit-to-finish virtual time less its admission wait
	// (see Admissions).
	Results []Result

	// Admissions holds each query's broker admission record, in input
	// order: leased budget, pool reservation, queue wait, shared ride.
	Admissions []Admission

	// Elapsed is the batch makespan: submission of the first query to
	// completion of the last, admission waits included.
	Elapsed time.Duration

	// QueueBudget is the initial even per-query share of the device's
	// beneficial queue depth. Individual admissions may receive more or
	// less as the broker redistributes freed credits; see Admissions.
	QueueBudget int

	// IOThroughputMBps is the device throughput sustained over the batch.
	IOThroughputMBps float64
}

// ExecuteConcurrent optimizes and runs several queries simultaneously,
// sharing CPU, buffer pool, and the device queue. Following the paper's
// §4.3 guidance — "when multiple queries are running on the system
// concurrently, the optimizer needs to pass a lower queue depth number to
// the QDTT model" — each query is planned once, at submission, under the
// broker's fair share of the device's beneficial queue depth, and leased
// exactly the depth that plan was priced at: a few well-budgeted queries
// run instead of everyone starving equally, and credits freed by finishing
// queries (or winding-down worker fleets) go to the ones still queued, in
// order. A PlanOptions.QueueBudget set by the caller wins over brokered
// budgets for every query in the batch.
func (s *System) ExecuteConcurrent(queries []Query, opts ...QueryOption) (ConcurrentResult, error) {
	if len(queries) == 0 {
		return ConcurrentResult{}, fmt.Errorf("%w: no queries", ErrInvalidQuery)
	}
	eo := parseOptions(opts)
	ses, err := s.OpenSession()
	if err != nil {
		return ConcurrentResult{}, err
	}
	// Every submit shares the batch's one option set. With Cold() the first
	// submit's flush empties the pool; nothing runs before Drain, so the
	// later ones find nothing left to drop.
	subs := make([]*Submission, len(queries))
	for i, q := range queries {
		if subs[i], err = ses.submit(q, eo); err != nil {
			// Earlier submissions already hold admission-queue slots (and,
			// once admitted, credits and pool reservations). Cancel them and
			// drain so everything is reclaimed before reporting the error —
			// otherwise the shared broker would leak the partial batch's
			// leases into every later query on this system.
			for _, sub := range subs[:i] {
				sub.Cancel()
			}
			_ = ses.Drain()
			return ConcurrentResult{}, err
		}
	}

	out := ConcurrentResult{Results: make([]Result, len(queries)), Admissions: make([]Admission, len(queries))}
	// Meter every node over exactly the batch window; Elapsed is the
	// makespan, not the max per-query runtime.
	start := s.env.Now()
	reads, mbps := s.metered(func() { err = ses.Drain() })
	if err != nil {
		return ConcurrentResult{}, err
	}
	out.Elapsed = time.Duration(s.env.Now() - start)
	out.QueueBudget = max(1, s.broker.Total()/len(queries)) // SplitCredits' last share
	out.IOThroughputMBps = mbps
	for i, sub := range subs {
		if out.Results[i], err = sub.Result(); err != nil {
			return ConcurrentResult{}, err
		}
		out.Admissions[i] = sub.Admission()
	}
	if len(queries) == 1 {
		// The batch window is the query window: a single-query batch
		// reports the same device traffic a standalone Run would.
		out.Results[0].PageReads, out.Results[0].IOThroughputMBps = reads, mbps
	}
	return out, nil
}
