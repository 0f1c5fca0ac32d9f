package exec

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// TestIndexFleetKeepsItsDepth runs cold index scans on the HDD with twenty
// reads a worker. Workers that claim entries from one cursor keep the
// device's queue at their degree until the range runs out, so the
// time-averaged depth stays within 15 % of the degree, and they leave
// together: once the first finds the cursor empty, the others each hold one
// read, so the last exits at most degree − 1 depth-1 reads later. Static
// per-worker chunks fail both: they finish unevenly and the queue thins
// behind them (0.78–0.84 of the degree, exits 0.14–0.64 s apart).
func TestIndexFleetKeepsItsDepth(t *testing.T) {
	const lo = 123_457
	for _, degree := range []int{8, 32} {
		rows := int64(20 * degree)
		w := newWorld(t, worldOpts{dev: "hdd", rows: 400_000, rpp: 33, poolPages: 8192})
		w.ctx.Obs = obs.NewRegistry(w.env)
		w.ctx.Obs.EnableEvents(0)
		res := Execute(w.ctx, w.spec(IndexScan, degree, lo, lo+rows-1))
		var exits []sim.Time
		for _, e := range w.ctx.Obs.Log().Events() {
			if e.Type == obs.EvWorkerExit {
				exits = append(exits, e.At)
			}
		}
		if len(exits) != degree {
			t.Fatalf("degree %d: %d workers exited", degree, len(exits))
		}
		spread := sim.Duration(exits[len(exits)-1] - exits[0])

		// A depth-1 read on the same range: the lone worker's mean latency.
		w.ctx.Pool.Flush()
		serial := Execute(w.ctx, w.spec(IndexScan, 1, lo, lo+rows-1))
		read := serial.IO.AvgLatency

		t.Logf("degree %d, %d rows: %v, queue depth %.2f, exits %v apart, depth-1 read %v",
			degree, res.RowsMatched, res.Runtime, res.IO.AvgQueueDepth, spread, read)
		if res.RowsMatched < 8*int64(degree) {
			t.Fatalf("degree %d: %d rows, under 8 reads a worker", degree, res.RowsMatched)
		}
		if min := 0.85 * float64(degree); res.IO.AvgQueueDepth < min {
			t.Errorf("degree %d: time-averaged queue depth %.2f, want at least %.2f",
				degree, res.IO.AvgQueueDepth, min)
		}
		if limit := sim.Duration(degree-1) * read; spread > limit {
			t.Errorf("degree %d: first and last worker exits %v apart, more than %d depth-1 reads (%v)",
				degree, spread, degree-1, limit)
		}
	}
}

// TestScheduleRowsWithoutAnIndexFleet pins the schedule.golden rows that
// run no index-scan fleet of more than one worker — full scans, degree-1
// index scans, updates, gathers, shared riders, nested-loop joins — to one
// digest, so that a later -update of the golden cannot move them unseen. The
// index fleet's claim cursor moved none of them. Reading a range's leaves in
// one run (leafRun) moved the twelve that read an index range over more than
// one leaf: the nested-loop joins, the ordered gather and the index-located
// updates, on both devices.
func TestScheduleRowsWithoutAnIndexFleet(t *testing.T) {
	const want = "038ea9812799aa4d25030b8b7533426c23c5e02da13534e41f6dc473a48a1ba0"
	data, err := os.ReadFile(filepath.Join("testdata", "schedule.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fleet := regexp.MustCompile(`^(ssd|hdd)/[^ ]*(pis-|hashjoin)`)
	var kept strings.Builder
	n := 0
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line != "" && !fleet.MatchString(line) {
			kept.WriteString(line)
			n++
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(kept.String()))); got != want || n != 38 {
		t.Errorf("%d rows without an index fleet hash to %s, want 38 rows hashing to %s", n, got, want)
	}
}
