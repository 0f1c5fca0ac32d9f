package pioqo

import (
	"pioqo/internal/btree"
	"pioqo/internal/opt"
)

// QueryProgress reports a running query's page progress: how many page
// pins the plan was expected to perform against how many its workers have
// completed so far. The estimate comes from plan cardinalities at the
// query's start; the processed count is incremented by the executor at
// every successful page fetch, so reading it mid-Drain (from an Observer
// callback or another submission's vantage point) sees live state.
type QueryProgress struct {
	// EstimatedPages is the optimizer-derived page-pin estimate for the
	// plan; 0 until the query's process has started.
	EstimatedPages int64
	// PagesProcessed is how many page fetches the query's workers have
	// completed.
	PagesProcessed int64
	// Remaining is max(0, EstimatedPages − PagesProcessed); estimates can
	// undershoot, so PagesProcessed may exceed EstimatedPages near the end.
	Remaining int64
	// Started reports that execution has begun. A query starts when its
	// drain first runs; its grant gates only its device reads.
	Started bool
	// Done reports that the query has finished.
	Done bool
}

// Progress reports the submission's live page progress. Valid at any
// point: before its start it reports zeros, mid-execution a moving count,
// after Drain the final tally with Done set.
func (sub *Submission) Progress() QueryProgress {
	p := QueryProgress{
		EstimatedPages: sub.est,
		PagesProcessed: sub.pages,
		Started:        sub.started,
		Done:           sub.done,
	}
	if rem := p.EstimatedPages - p.PagesProcessed; rem > 0 && !p.Done {
		p.Remaining = rem
	}
	return p
}

// estimatePages predicts how many page pins a plan's execution performs —
// the denominator for live progress. A full scan pins every heap page; an
// index scan descends the tree once, walks the qualifying leaves, and pins
// one heap page per fetched row. Prefetches are excluded on both sides of
// the ratio: the executor's progress counter also counts only demand
// fetches. A partitioned table sums the shards its scans run on — active,
// as scatter returned them — each under its own plan's method when the plan
// carries per-shard plans.
func estimatePages(q Query, plan *Plan, active []int) int64 {
	t := q.Table
	if !t.sharded() {
		return estimatePartPages(t.one(), q, plan.Method)
	}
	var sum int64
	for j, si := range active {
		method := plan.Method
		if plan.scatter != nil {
			method = fromInternalPlan(plan.scatter.plans[j]).Method
		}
		sum += estimatePartPages(&t.parts[si], q, method)
	}
	return sum
}

// estimatePartPages is estimatePages for one partition's heap and index.
// The rows an index scan fetches are the optimizer's estimate for the
// partition's range (opt.Selectivity), not the plan's: a WithPlan plan
// carries none.
func estimatePartPages(part *tablePart, q Query, method AccessMethod) int64 {
	heap := part.tab.Pages()
	if method == FullTableScan {
		return heap
	}
	in := part.input(q)
	rows := int64(opt.Selectivity(&in)*float64(part.tab.Rows()) + 0.5)
	leaves := (rows + btree.DefaultLeafCap - 1) / btree.DefaultLeafCap
	if leaves < 1 {
		leaves = 1
	}
	descent := int64(1)
	if part.idx != nil {
		descent = int64(len(part.idx.DescentPath()))
	}
	return descent + leaves + rows
}
