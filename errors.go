package pioqo

import (
	"errors"
	"fmt"

	"pioqo/internal/fault"
)

// The engine's error taxonomy. Every error a query can fail with wraps one
// of these sentinels, so callers branch with errors.Is instead of matching
// message strings:
//
//	res, err := sys.Run(ctx, q)
//	switch {
//	case errors.Is(err, pioqo.ErrDeadlineExceeded): // timed out
//	case errors.Is(err, pioqo.ErrDeviceFault):      // device gave up
//	}
//
// ErrCanceled and ErrDeadlineExceeded additionally satisfy errors.Is
// against context.Canceled and context.DeadlineExceeded, so code written
// against the standard library's context taxonomy keeps working.
//
// The sentinels are shared with the internal layers (they are defined in
// internal/fault and re-exported here), so an abort cause keeps its
// identity from the device model all the way to the caller.
var (
	// ErrCanceled reports a query aborted by caller cancellation — a
	// canceled context, or an engine-side cancel during batch cleanup.
	ErrCanceled = fault.ErrCanceled

	// ErrDeadlineExceeded reports a query aborted by a WithTimeout
	// virtual-time deadline or the caller context's deadline.
	ErrDeadlineExceeded = fault.ErrDeadlineExceeded

	// ErrDeviceFault reports an injected device I/O failure that survived
	// the retry policy.
	ErrDeviceFault = fault.ErrDeviceFault

	// ErrAdmissionClosed reports a Submit against a closed Session.
	ErrAdmissionClosed = fault.ErrAdmissionClosed

	// ErrNotCalibrated reports an operation that needs the calibrated cost
	// model before the system has one; call Calibrate (or LoadModel) first.
	ErrNotCalibrated = errors.New("pioqo: system not calibrated")

	// ErrInvalidQuery reports a structurally invalid query — no table, a
	// plan that needs an index the table does not have, a non-positive
	// group width, an update of a synthetic table, contradictory tuning
	// options — or an operation the table's layout does not support yet
	// (joins and updates over a sharded table).
	ErrInvalidQuery = errors.New("pioqo: invalid query")
)

// QueryError is the error type query execution returns: the failing
// operation and table plus the underlying cause. It unwraps to the
// taxonomy sentinel, so errors.Is/errors.As work through it:
//
//	var qe *pioqo.QueryError
//	if errors.As(err, &qe) { log.Printf("%s on %s: %v", qe.Op, qe.Table, qe.Err) }
type QueryError struct {
	Op    string // the request's kind: "query", "groupby", "join", "update"
	Table string // the queried table's name, when known
	Err   error  // the cause; wraps a taxonomy sentinel
}

func (e *QueryError) Error() string {
	if e.Table != "" {
		return fmt.Sprintf("pioqo: %s %q: %v", e.Op, e.Table, e.Err)
	}
	return fmt.Sprintf("pioqo: %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *QueryError) Unwrap() error { return e.Err }
