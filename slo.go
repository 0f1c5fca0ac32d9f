package pioqo

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pioqo/internal/stats"
)

// WorkloadReport aggregates a concurrent batch's service levels by query
// shape: virtual-time latency percentiles per shape, the queue-wait versus
// execution breakdown, and the batch makespan. All times are virtual, so
// the same seeded workload reports identical numbers on any host.
type WorkloadReport struct {
	// Queries is the batch size; Makespan the submission-to-last-completion
	// window, admission waits included.
	Queries  int
	Makespan time.Duration

	// Shapes holds one entry per distinct query shape, in first-appearance
	// order. A shape is table × aggregate × predicate selectivity — the
	// granularity at which a workload's SLOs are usually stated.
	Shapes []ShapeSLO
}

// ShapeSLO is one query shape's service levels over the batch.
type ShapeSLO struct {
	// Shape labels the group: table, aggregate, selectivity percent.
	Shape string
	// Queries is how many of the batch's queries had this shape.
	Queries int

	// P50, P95, and P99 are nearest-rank percentiles of end-to-end latency
	// (admission wait + execution) across the shape's queries.
	P50, P95, P99 time.Duration

	// MeanWait and MeanExec split the shape's mean end-to-end latency into
	// its admission-queue and execution components.
	MeanWait, MeanExec time.Duration
}

// SLOReport derives the workload report from the batch's results. queries
// must be the slice passed to ExecuteConcurrent, in the same order — it
// supplies the shape of each result.
func (r ConcurrentResult) SLOReport(queries []Query) WorkloadReport {
	n := len(r.Results)
	if len(queries) < n {
		n = len(queries)
	}
	rep := WorkloadReport{Queries: n, Makespan: r.Elapsed}
	idx := make(map[string]int)
	type group struct {
		lat        []time.Duration
		wait, exec time.Duration
	}
	var groups []*group
	for i := 0; i < n; i++ {
		label := shapeLabel(queries[i])
		g, ok := idx[label]
		if !ok {
			g = len(groups)
			idx[label] = g
			groups = append(groups, &group{})
			rep.Shapes = append(rep.Shapes, ShapeSLO{Shape: label})
		}
		wait := r.Admissions[i].Wait
		exec := r.Results[i].Runtime
		groups[g].lat = append(groups[g].lat, wait+exec)
		groups[g].wait += wait
		groups[g].exec += exec
	}
	for i, g := range groups {
		sort.Slice(g.lat, func(a, b int) bool { return g.lat[a] < g.lat[b] })
		k := time.Duration(len(g.lat))
		rep.Shapes[i].Queries = len(g.lat)
		rep.Shapes[i].P50 = stats.Percentile(g.lat, 0.50)
		rep.Shapes[i].P95 = stats.Percentile(g.lat, 0.95)
		rep.Shapes[i].P99 = stats.Percentile(g.lat, 0.99)
		rep.Shapes[i].MeanWait = g.wait / k
		rep.Shapes[i].MeanExec = g.exec / k
	}
	return rep
}

// shapeLabel names a query's shape: table, aggregate, and predicate
// selectivity as a percentage of the key domain.
func shapeLabel(q Query) string {
	span := q.High - q.Low + 1
	sel := 0.0
	if rows := q.Table.Rows(); rows > 0 && span > 0 {
		sel = float64(span) / float64(rows) * 100
	}
	return fmt.Sprintf("%s %s %.3g%%", q.Table.Name(), strings.ToLower(q.Agg.String()), sel)
}

// String renders the report as an aligned table.
func (r WorkloadReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload: %d queries, makespan %v\n", r.Queries, r.Makespan)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shape\tn\tp50\tp95\tp99\tmean wait\tmean exec")
	for _, s := range r.Shapes {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t%v\n",
			s.Shape, s.Queries, s.P50, s.P95, s.P99, s.MeanWait, s.MeanExec)
	}
	w.Flush()
	return sb.String()
}
